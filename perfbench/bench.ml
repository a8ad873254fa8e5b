(* One benchmark run of one workload: set-up, load, measurement, the
   correctness gate, and the metrics.

   Untraced runs report the end-to-end metrics. Traced runs split the
   measured phase in two halves over the same world: the first half
   runs untraced and gives the counter-based per-layer metrics (so the
   recorder's own allocation and time stay out of them) and the
   untraced throughput; the second half records spans, gives the
   time-based per-layer metrics and the traced throughput, whose ratio
   to the first half's is the tracing overhead. *)

open Workload
module T = Horus_transport
module D = Horus_dir
module M = Horus_obs.Metrics

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  violations : string list;
  metrics : (string * float * string) list;  (* name, value, unit *)
  info : (string * string) list;             (* name, JSON value *)
}

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Interquartile mean: the mean of the middle half. Set-up and
   membership times are few per run and cluster (crash detection on
   NAK's 50 ms ticks), so a median flips between clusters, while a rare
   stall would drag a plain mean. *)
let iq_mean l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  let lo = n / 4 in
  let hi = max (lo + 1) (n - (n / 4)) in
  let sum = ref 0.0 in
  for i = lo to hi - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (hi - lo)

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* {1 Counter snapshots} *)

type snap = {
  s_ns : int;
  s_done : int;
  s_minor : float;
  s_major : float;
  s_majors : int;
  s_times : Unix.process_times;
  s_events : int;
  s_sent : int;
  s_bytes : int;
  s_hcpi : int list;    (* down+up crossings per layer, in [layers] order *)
  s_retrans : int;
}

let count ctx name = M.count (M.counter (Horus.World.metrics ctx.world) name)

let snap ctx =
  let g = Gc.quick_stat () in
  let sent, bytes =
    List.fold_left
      (fun (s, b) (be : T.Backend.t) ->
         (s + be.T.Backend.stats.T.Backend.sent, b + be.T.Backend.stats.T.Backend.bytes_sent))
      (0, 0) ctx.all
  in
  { s_ns = now_ns ();
    s_done = Ibuf.length ctx.done_ns;
    s_minor = g.Gc.minor_words;
    s_major = g.Gc.major_words;
    s_majors = g.Gc.major_collections;
    s_times = Unix.times ();
    s_events = Horus_sim.Engine.executed ctx.engine;
    s_sent = sent;
    s_bytes = bytes;
    s_hcpi = List.map (fun l -> count ctx ("hcpi.down." ^ l) + count ctx ("hcpi.up." ^ l)) layers;
    s_retrans = count ctx "nak.retransmits" }

(* {1 The measured window} *)

(* Completed casts with [t0] in [a, b), as sorted latencies in ns. *)
let latencies ctx ~a ~b =
  let l = ref [] in
  for i = 0 to Ibuf.length ctx.t0_ns - 1 do
    let t0 = Ibuf.get ctx.t0_ns i in
    if t0 >= a && t0 < b then l := (Ibuf.get ctx.done_ns i - t0) :: !l
  done;
  Array.of_list !l

(* Casts from live origins issued in [a, b) that never completed: each
   counts as missing every latency limit. *)
let failed_in ctx ~a ~b =
  Hashtbl.fold
    (fun _ g acc ->
       Hashtbl.fold
         (fun _ (c : Checker.cast) n ->
            if (not (List.mem c.Checker.c_origin ctx.victims))
            && c.Checker.c_t0 >= a && c.Checker.c_t0 < b
            then n + 1
            else n)
         g.Checker.outstanding acc)
    ctx.chk.Checker.groups 0

let completions ctx ~a ~b =
  let n = ref 0 in
  for i = 0 to Ibuf.length ctx.done_ns - 1 do
    let d = Ibuf.get ctx.done_ns i in
    if d >= a && d < b then incr n
  done;
  !n

(* Cast latencies issued in [a, b), in ms and sorted; a cast never
   delivered counts as missing every latency limit. *)
let sorted_ms ctx ~a ~b =
  let all =
    Array.append
      (Array.map (fun ns -> float_of_int ns /. 1e6) (latencies ctx ~a ~b))
      (Array.make (failed_in ctx ~a ~b) infinity)
  in
  Array.sort compare all;
  all

(* The p99 per one-second window of [a, b), reported as the median over
   windows: a tail is set by its worst moments, so one host stall would
   otherwise set the run's figure. *)
let windowed_p99 ctx ~a ~b =
  let w = max 1 ((b - a) / 1_000_000_000) in
  let len = (b - a) / w in
  median (List.init w (fun k -> pct (sorted_ms ctx ~a:(a + (k * len)) ~b:(a + ((k + 1) * len))) 0.99))

(* {1 The run} *)

let churn_victims ctx =
  let g = ctx.shape.groups in
  let g1 = draw ctx.seed 3000 mod g in
  let g2 = (g1 + 1 + (draw ctx.seed 3001 mod (g - 1))) mod g in
  List.mapi (fun k gi -> (gi, pick_victim ctx gi (3100 + k))) [ g1; g2 ]

(* Seconds between two set-ups. Set-ups run back to back all fall into
   whatever state the host is in for those few milliseconds, and the
   figure of a run then jumps by half between runs; a set-up that starts
   from an idle process, as a deployment's does, reads about the same in
   every run. *)
let setup_gap = 0.2

let run ?(smoke = false) ?spans_out shape ~seed ~seconds ~traced =
  let timing =
    if smoke then { seconds; warmup = 0.2; setups = 1; probes = 1; join_cycles = 1; limit = 60.0 }
    else { seconds; warmup = 1.0; setups = 25; probes = 9; join_cycles = 21; limit = 150.0 }
  in
  let deadline = now_ns () + int_of_float (timing.limit *. 1e9) in
  (* Set up [setups] times, idle for [setup_gap] between two, and keep
     the last world. *)
  let payloads = Checker.create ~seed ~size:shape.payload in
  let rec setups k acc =
    let ctx, s = build shape ~seed ~traced ~deadline ~chk:(Checker.renew payloads) in
    if k > 1 then begin
      close ctx;
      Unix.sleepf setup_gap;
      setups (k - 1) (s :: acc)
    end
    else (ctx, s :: acc)
  in
  let ctx, setup_times = setups timing.setups [] in
  Fun.protect ~finally:(fun () -> close ctx) @@ fun () ->
  let victims = if shape.churn then churn_victims ctx else [] in
  ctx.victims <- List.map (fun (_, m) -> m.eid) victims;
  List.iter (fun (_, m) -> Checker.exclude m.mc) victims;
  let start_load ~stop_ns =
    match shape.load with
    | Closed k -> start_closed ctx k
    | Open rate -> start_open ctx rate ~stop_ns
  in
  let s_ns = int_of_float (timing.seconds *. 1e9) in
  let t_load = now_ns () in
  let meas_a = t_load + int_of_float (timing.warmup *. 1e9) in
  let meas_b = meas_a + s_ns in
  start_load ~stop_ns:meas_b;
  (* groups-churn: crash one member in each of two groups at a third of
     the phase, join a fresh member to each at two thirds (plus a seeded
     offset of up to a tenth). *)
  let crash_at = ref [] and join_at = ref [] in
  if shape.churn then begin
    let at ns f =
      ignore
        (Horus_sim.Engine.schedule ctx.engine ~delay:(secs (max 0 (ns - now_ns ())))
           (fun () -> f ()))
    in
    at (meas_a + (s_ns / 3)) (fun () ->
        crash_at := List.map (fun (_, m) -> (m.eid, start_crash ctx m)) victims);
    let jitter = draw seed 3200 mod (s_ns / 10) in
    at (meas_a + (2 * s_ns / 3) + jitter) (fun () ->
        join_at := List.mapi (fun k (gi, _) -> (gi, start_join ctx gi (3300 + k))) victims)
  end;
  run_for ctx (secs (meas_a - now_ns ()));
  let views_before = Hashtbl.fold (fun _ m n -> n + List.length m.installs) ctx.by_eid 0 in
  let half = meas_a + (s_ns / 2) in
  let untraced_b = if traced then half else meas_b in
  let s0 = snap ctx in
  ctx.sampling <- true;
  run_for ctx (secs (untraced_b - now_ns ()));
  ctx.sampling <- false;
  let s1 = snap ctx in
  let traced_window =
    match ctx.sp with
    | Some sp when traced ->
      Spans.reset_totals sp;
      ctx.polls <- 0;
      ctx.empty_polls <- 0;
      Spans.set_enabled sp true;
      let t = snap ctx in
      run_for ctx (secs (meas_b - now_ns ()));
      Spans.set_enabled sp false;
      Some (t, snap ctx)
    | _ -> None
  in
  drain ctx;
  let measured_s = secs (meas_b - meas_a) in
  (* Membership figures. *)
  let view_change, join =
    if shape.churn then begin
      run_until ctx "churn joins" (fun () ->
          !join_at <> [] && List.for_all (fun (_, (_, t)) -> !t <> 0) !join_at);
      let worst l =
        List.fold_left
          (fun acc x ->
             match (acc, x) with Some a, Some b -> Some (Float.max a b) | _ -> None)
          (Some 0.0) l
      in
      let vc () =
        worst
          (List.map
             (fun (eid, (t, survivors)) -> settle_time survivors ~t (excluded_by eid))
             !crash_at)
      in
      let js () =
        worst
          (List.map
             (fun (gi, ((j : member), t)) ->
                settle_time (live ctx gi) ~t:!t (joined_by ctx gi j.eid))
             !join_at)
      in
      run_until ctx "churn views" (fun () -> vc () <> None && js () <> None);
      (Option.get (vc ()), Option.get (js ()))
    end
    else begin
      let ps = List.init timing.probes (fun k -> probe ctx (4000 + k)) in
      let cycles = List.init timing.join_cycles (fun k -> join_cycle ctx k) in
      (iq_mean (List.map fst ps), iq_mean (List.map snd ps @ cycles))
    end
  in
  let views_after = Hashtbl.fold (fun _ m n -> n + List.length m.installs) ctx.by_eid 0 in
  let undelivered = Checker.finish ctx.chk in
  let rate = float_of_int (completions ctx ~a:meas_a ~b:meas_b) /. secs (meas_b - meas_a) in
  (* a cast still owed after the drain is a violation: Checker.finish *)
  let correct = Checker.ok ctx.chk in
  let info =
    [ ("workload", Printf.sprintf "%S" shape.name);
      ("seed", string_of_int seed);
      ("traced", string_of_bool traced);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("measured_s", Printf.sprintf "%.6f" measured_s);
      ("setup_runs", string_of_int (List.length setup_times));
      ("casts_completed", string_of_int (Ibuf.length ctx.done_ns)) ]
  in
  let casts a b = float_of_int (max 1 (b.s_done - a.s_done)) in
  let per a b f = f /. casts a b in
  let cpu a b =
    b.s_times.Unix.tms_utime +. b.s_times.Unix.tms_stime
    -. a.s_times.Unix.tms_utime -. a.s_times.Unix.tms_stime
  in
  let e2e =
    [ ("setup_s", iq_mean setup_times, "s");
      ("casts_per_s", rate, "1/s");
      ("cpu_us_per_cast", 1e6 *. per s0 s1 (cpu s0 s1), "us");
      ("view_change_s", view_change, "s") ]
  in
  let per_layer () =
    let wall a b = secs (b.s_ns - a.s_ns) in
    let sys a b = b.s_times.Unix.tms_stime -. a.s_times.Unix.tms_stime in
    let counters =
      List.map2
        (fun l (x, y) -> ("hcpi.crossings_per_cast." ^ l, per s0 s1 (float_of_int (y - x)), "count"))
        layers (List.combine s0.s_hcpi s1.s_hcpi)
      @ [ ("wire.packets_per_cast", per s0 s1 (float_of_int (s1.s_sent - s0.s_sent)), "count");
          ("wire.bytes_per_cast", per s0 s1 (float_of_int (s1.s_bytes - s0.s_bytes)), "B");
          ( "layers.nak_retransmits_per_kcast",
            1000.0 *. per s0 s1 (float_of_int (s1.s_retrans - s0.s_retrans)), "count" );
          ("sim.engine_events_per_cast", per s0 s1 (float_of_int (s1.s_events - s0.s_events)), "count");
          ("sim.engine_pending_max", float_of_int ctx.pending_max, "count");
          ("gc.minor_words_per_cast", per s0 s1 (s1.s_minor -. s0.s_minor), "words");
          ("gc.major_words_per_cast", per s0 s1 (s1.s_major -. s0.s_major), "words");
          ( "gc.major_collections_per_kcast",
            1000.0 *. per s0 s1 (float_of_int (s1.s_majors - s0.s_majors)), "count" );
          ("proc.cpu_frac", cpu s0 s1 /. wall s0 s1, "frac");
          ("proc.sys_frac", sys s0 s1 /. wall s0 s1, "frac") ]
    in
    let late =
      let a = Array.init (Ibuf.length ctx.late_ns) (fun i -> float_of_int (Ibuf.get ctx.late_ns i) /. 1e6) in
      Array.sort compare a;
      [ ("gen.late_max_ms", pct a 1.0, "ms"); ("gen.late_p99_ms", pct a 0.99, "ms") ]
    in
    let scripted =
      (* per crash, one install at each survivor; per join, one at each
         member plus the joiner's own singleton view; per leave, one at
         each remaining member *)
      2 * shape.size * (if shape.churn then List.length victims else timing.probes)
      + if shape.churn then 0 else timing.join_cycles * ((2 * shape.size) + 2)
    in
    let dir_retries =
      Hashtbl.fold
        (fun _ m acc -> if List.memq m.client acc then acc else m.client :: acc)
        ctx.by_eid []
      |> List.fold_left (fun n cl -> n + (D.Dir_client.stats cl).D.Dir_client.c_retries) 0
    in
    let other =
      [ ("deliver_p50_ms", pct (sorted_ms ctx ~a:meas_a ~b:untraced_b) 0.50, "ms");
        ("deliver_p99_ms", windowed_p99 ctx ~a:meas_a ~b:untraced_b, "ms");
        ("layers.mbrship_extra_views", float_of_int (views_after - views_before - scripted), "count");
        ("layers.join_s", join, "s");
        ("dir.register_ms", median ctx.reg_ms, "ms");
        ("dir.list_ms", median ctx.list_ms, "ms");
        ("dir.retries", float_of_int dir_retries, "count");
        ("core.unknown_gid", float_of_int (Horus.Transport_link.unknown_gid ctx.link), "count");
        ( "undelivered_frac",
          float_of_int undelivered /. float_of_int (max 1 ctx.attempted), "frac" ) ]
    in
    let spans =
      match (ctx.sp, traced_window) with
      | Some sp, Some (t0, t1) ->
        let mean_us label f =
          let x = Spans.totals sp label in
          if x.Spans.count = 0 then 0.0 else float_of_int (f x) /. float_of_int x.Spans.count /. 1e3
        in
        let total x = x.Spans.total_ns and self x = x.Spans.self_ns in
        let untraced_rate = float_of_int (s1.s_done - s0.s_done) /. wall s0 s1 in
        let traced_rate = float_of_int (t1.s_done - t0.s_done) /. wall t0 t1 in
        [ ("core.cast_us", mean_us "core.cast" total, "us");
          ("hcpi.rx_self_us", mean_us "core.link_rx" self, "us");
          ("core.link_xmit_self_us", mean_us "core.link_xmit" self, "us");
          ("core.link_rx_us", mean_us "core.link_rx" total, "us");
          ("transport.udp_send_us", mean_us "transport.udp_send" total, "us");
          ( "transport.udp_sends_per_cast",
            float_of_int (Spans.totals sp "transport.udp_send").Spans.count /. casts t0 t1, "count" );
          ("transport.udp_poll_self_us", mean_us "transport.udp_poll" self, "us");
          ( "transport.udp_poll_empty_frac",
            float_of_int ctx.empty_polls /. float_of_int (max 1 ctx.polls), "frac" );
          ("app.upcall_us", mean_us "app.upcall" total, "us");
          ("trace.casts_per_s_untraced", untraced_rate, "1/s");
          ("trace.casts_per_s_traced", traced_rate, "1/s");
          ("trace.overhead_frac", 1.0 -. (traced_rate /. untraced_rate), "frac") ]
      | _ -> []
    in
    spans @ counters @ late @ other
  in
  (match (ctx.sp, spans_out) with
   | Some sp, Some path -> Spans.write_raw sp path
   | _ -> ());
  { correct;
    attempted = ctx.attempted;
    failed = undelivered;
    violations = Checker.violations ctx.chk;
    metrics = (if traced then per_layer () else e2e);
    info }
