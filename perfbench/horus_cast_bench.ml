(* horus_cast_bench: one run of one workload of the Horus cast
   benchmark, printing its result as one JSON line on stdout.

     horus_cast_bench.exe --workload small-n8 --seed 1 --seconds 10 --trace 0

   See README.md in this directory for the workloads and metrics; the
   benchmark's entry point, run.py, builds this program and adds the
   peak memory it measures from outside. *)

open Horus_perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME small-n8 | bulk-16k | groups-mux | groups-churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--spans", Arg.Set_string spans, "FILE write sampled raw spans here (traced runs)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "horus_cast_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let shape =
    match Workload.find_shape !workload with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  match
    Bench.run
      ?spans_out:(if !spans = "" then None else Some !spans)
      shape ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  with
  | exception Workload.Timed_out what ->
    Printf.eprintf "run exceeded its wall-clock limit while waiting for: %s\n" what;
    exit 3
  | r ->
    List.iter (fun v -> prerr_endline ("violation: " ^ v)) r.Bench.violations;
    let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null" in
    let metrics =
      List.map
        (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
        r.Bench.metrics
    in
    let info = List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) r.Bench.info in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"info\": {%s}}\n"
      r.Bench.correct r.Bench.attempted r.Bench.failed (String.concat ", " metrics)
      (String.concat ", " info)
