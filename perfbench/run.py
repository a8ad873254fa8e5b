#!/usr/bin/env python3
"""Entry point of the Horus cast benchmark.

    python3 perfbench/run.py --workload small-n8 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the benchmark program with dune
(into the checkout's own _build), runs one workload in a child process,
measures the child's peak memory from outside (wait4), and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones; the line before it carries the run's
metadata (seed, nproc, OCaml version, measured seconds).

Exits non-zero without printing a result when the checkout is not a
Horus source tree, the build fails, or the run exceeds its time limit.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "horus_cast_bench.exe")
OUT = ".perfbench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("not at the root of a Horus checkout (missing %s)" % need, 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "perfbench/horus_cast_bench.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def run_child(args):
    """Run the program; returns (exit status, stdout, stderr, peak RSS in KiB)."""
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(OUT, tag + ".out")
    err_path = os.path.join(OUT, tag + ".err")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(OUT, tag + ".spans.jsonl")]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        p = subprocess.Popen(cmd, stdout=out, stderr=err)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                break
            if time.monotonic() > deadline:
                os.kill(p.pid, signal.SIGKILL)
                os.wait4(p.pid, 0)
                p.returncode = -signal.SIGKILL
                fail("run exceeded %d s and was killed" % RUN_TIMEOUT_S, 3)
            time.sleep(0.05)
        # wait4 reaped the child; keep Popen from waiting on it again.
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read().decode(errors="replace")
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    return p.returncode, stdout, stderr, ru.ru_maxrss


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    build()
    code, stdout, stderr, maxrss_kib = run_child(args)
    sys.stderr.write(stderr)
    if code != 0:
        fail("benchmark program exited with status %d" % code)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark program printed no result")
    child = json.loads(lines[-1])
    metrics = child["metrics"]
    info = dict(child["info"])
    info["peak_rss_mb"] = maxrss_kib / 1024.0
    if args.trace == 1:
        metrics["proc.peak_rss_mb"] = {"value": maxrss_kib / 1024.0, "unit": "MB"}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
