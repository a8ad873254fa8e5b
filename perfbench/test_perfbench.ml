(* The benchmark's own tests: the correctness checker on hand-made
   delivery streams, self time on a synthetic span tree, and a
   seconds-long smoke run of every workload.

     dune build @perfbench/benchtest *)

open Horus_perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* {1 Checker} *)

(* Two members A (eid 1) and B (eid 2) in one view; each origin casts
   [n] casts owed to both. [deliver] feeds member [m] the payload of
   (origin, seq), optionally tampered with. *)
let setup ?(n = 3) () =
  let chk = Checker.create ~seed:42 ~size:64 in
  let g = Checker.group chk ~gid:7 in
  let a = Checker.member g ~eid:1 ~initial:true and b = Checker.member g ~eid:2 ~initial:true in
  List.iter (fun m -> Checker.on_view m ~key:(1, 1)) [ a; b ];
  for origin = 1 to 2 do
    for _ = 1 to n do
      ignore (Checker.issue g ~origin ~owed:[ 1; 2 ] ~t0:0)
    done
  done;
  (chk, a, b)

let deliver ?(tamper = fun b -> b) chk m (origin, seq) =
  let p = Bytes.of_string (Checker.payload chk ~origin ~seq) in
  let p = tamper p in
  ignore (Checker.on_deliver m p ~off:0 ~len:(Bytes.length p))

let stream = [ (1, 0); (2, 0); (1, 1); (2, 1); (1, 2); (2, 2) ]

let test_checker () =
  (let chk, a, b = setup () in
   List.iter (deliver chk a) stream;
   List.iter (deliver chk b) stream;
   let undelivered = Checker.finish chk in
   check "checker: identical streams pass" (Checker.ok chk && undelivered = 0));
  (let chk, a, b = setup () in
   List.iter (deliver chk a) stream;
   List.iter (deliver chk b) [ (2, 0); (1, 0); (1, 1); (2, 1); (1, 2); (2, 2) ];
   check "checker: reordered stream fails total order" (not (Checker.ok chk)));
  (let chk, a, b = setup () in
   List.iter (deliver chk a) stream;
   List.iter (deliver chk b) [ (1, 0); (2, 0); (1, 1); (1, 1); (2, 1); (1, 2); (2, 2) ];
   check "checker: duplicated cast fails" (not (Checker.ok chk)));
  (let chk, a, b = setup () in
   List.iter (deliver chk a) stream;
   List.iteri
     (fun i c ->
        let tamper p =
          if i = 3 then Bytes.set p 40 (Char.chr (Char.code (Bytes.get p 40) lxor 1));
          p
        in
        deliver ~tamper chk b c)
     stream;
   check "checker: corrupted payload fails" (not (Checker.ok chk)));
  (let chk, a, b = setup () in
   List.iter (deliver chk a) stream;
   List.iter (deliver chk b) [ (1, 0); (2, 0); (1, 1); (2, 1); (1, 2) ];
   let undelivered = Checker.finish chk in
   check "checker: a cast missing at one member is undelivered"
     (undelivered = 1 && not (Checker.ok chk)));
  (let chk, a, b = setup () in
   let trailing = [ (1, 0); (2, 0); (1, 1); (2, 1); (1, 2) ] in
   List.iter (deliver chk a) trailing;
   List.iter (deliver chk b) trailing;
   let undelivered = Checker.finish chk in
   check "checker: a trailing cast missing at every member fails"
     (undelivered = 1 && not (Checker.ok chk)));
  (let chk, a, b = setup () in
   List.iter (deliver chk a) stream;
   List.iter (deliver chk b) [ (1, 0); (2, 0); (1, 1) ];
   Checker.on_view a ~key:(2, 1);
   Checker.on_view b ~key:(2, 1);
   check "checker: survivors disagreeing on a view's deliveries fail" (not (Checker.ok chk)))

(* {1 Spans} *)

(* A synthetic tree on a fake clock:
     cast [0,100) > xmit [10,60) > send [20,50)
                  > xmit [70,90) > send [72,88)
   so cast's self time is 100 - 50 - 20 = 30, xmit's (50-30)+(20-16) =
   24, send's 30+16 = 46. The tree serves cast id 0, a multiple of
   Spans.sample_every, so its spans are kept raw. *)
let test_spans () =
  let clock = ref 0 in
  let sp = Spans.create ~clock:(fun () -> !clock) () in
  Spans.set_enabled sp true;
  let cast = Spans.name sp "cast" and xmit = Spans.name sp "xmit" and send = Spans.name sp "send" in
  let at t = clock := t in
  at 0;
  Spans.enter sp cast ~cast:0;
  at 10;
  Spans.enter sp xmit ~cast:(-1);
  at 20;
  Spans.enter sp send ~cast:(-1);
  at 50;
  Spans.leave sp;
  at 60;
  Spans.leave sp;
  at 70;
  Spans.enter sp xmit ~cast:(-1);
  at 72;
  Spans.enter sp send ~cast:(-1);
  at 88;
  Spans.leave sp;
  at 90;
  Spans.leave sp;
  at 100;
  Spans.leave sp;
  let online l = Spans.totals sp l in
  check "spans: online self times"
    ((online "cast").Spans.self_ns = 30
     && (online "xmit").Spans.self_ns = 24
     && (online "send").Spans.self_ns = 46
     && (online "cast").Spans.total_ns = 100
     && (online "xmit").Spans.count = 2);
  let raw = Spans.raw_spans sp in
  let offline = Spans.self_times raw in
  let same l =
    let a = online l and b = Hashtbl.find offline l in
    a.Spans.count = b.Spans.count && a.Spans.total_ns = b.Spans.total_ns
    && a.Spans.self_ns = b.Spans.self_ns
  in
  check "spans: sampled raw spans give the same totals offline"
    (List.length raw = 5 && same "cast" && same "xmit" && same "send");
  check "spans: children inherit the cast id"
    (List.for_all (fun s -> s.Spans.cast = 0) raw)

(* {1 Smoke runs} *)

let smoke name ~traced ~assert_correct =
  let shape = Workload.smoke (Option.get (Workload.find_shape name)) in
  let t0 = Unix.gettimeofday () in
  let r = Bench.run ~smoke:true shape ~seed:1 ~seconds:1.0 ~traced in
  let dt = Unix.gettimeofday () -. t0 in
  let has m = List.exists (fun (n, _, _) -> n = m) r.Bench.metrics in
  let expected =
    if traced then
      [ "core.cast_us"; "hcpi.rx_self_us"; "gc.minor_words_per_cast"; "deliver_p50_ms";
        "deliver_p99_ms"; "layers.join_s"; "trace.overhead_frac" ]
    else [ "setup_s"; "casts_per_s"; "cpu_us_per_cast"; "view_change_s" ]
  in
  List.iter (fun v -> Printf.printf "     %s: %s\n" name v) r.Bench.violations;
  check
    (Printf.sprintf "smoke: %s%s ran in %.1f s" name (if traced then " (traced)" else "") dt)
    (r.Bench.attempted > 0 && List.for_all has expected
     && ((not assert_correct) || (r.Bench.correct && r.Bench.failed = 0)))

let () =
  test_checker ();
  test_spans ();
  List.iter (fun w -> smoke w ~traced:false ~assert_correct:true) [ "small-n8"; "bulk-16k"; "groups-mux" ];
  smoke "small-n8" ~traced:true ~assert_correct:true;
  (* groups-churn runs, but its verdict is not asserted: casts issued
     while a view change is in progress can break FIFO or total order
     (see README.md, "Known defect"). *)
  smoke "groups-churn" ~traced:false ~assert_correct:false;
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
