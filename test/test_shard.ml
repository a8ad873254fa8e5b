(* Shards as independent cells: the run harness (shard order,
   exception propagation) and the determinism contract — a sharded
   soak with shards=1 fingerprints identically to the plain
   single-threaded run, and a two-domain run fingerprints the same
   twice. Also the driver-scaling regression: a driver hosting more
   backends than FD_SETSIZE still delivers. *)

module T = Horus_transport
module Shard = Horus_transport.Shard

(* --- the run harness ----------------------------------------------- *)

let run_in_shard_order () =
  Alcotest.(check (array int)) "results in shard order" [| 0; 10; 20; 30 |]
    (Shard.run 4 (fun id -> id * 10));
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Shard.run: shards must be >= 1") (fun () ->
        ignore (Shard.run 0 Fun.id))

let run_propagates_failure () =
  Alcotest.check_raises "a shard's exception surfaces" (Failure "shard 1 died")
    (fun () -> ignore (Shard.run 3 (fun id -> if id = 1 then failwith "shard 1 died")))

(* --- determinism: sharded cells ------------------------------------ *)

let small_soak =
  { Horus_check.Soak.default_config with
    Horus_check.Soak.c_name = "shard-test";
    c_casts = 60;
    c_check_every = 0.5 }

(* shards=1 is the plain run, bit for bit: same report fingerprints,
   and the combined fingerprint IS the metrics fingerprint. *)
let sharded_one_equals_plain () =
  Horus_layers.Init.register_all ();
  let plain = Horus_check.Soak.run small_soak in
  let s = Horus_check.Soak.run_sharded ~shards:1 small_soak in
  Alcotest.(check int) "one cell" 1 (Array.length s.Horus_check.Cells.cells);
  let cell = s.Horus_check.Cells.cells.(0) in
  Alcotest.(check bool) "cell passed" true (Horus_check.Soak.ok cell);
  Alcotest.(check int64) "metrics fingerprint identical"
    plain.Horus_check.Soak.rp_metrics_fingerprint
    cell.Horus_check.Soak.rp_metrics_fingerprint;
  Alcotest.(check int64) "combined = plain"
    plain.Horus_check.Soak.rp_metrics_fingerprint
    s.Horus_check.Cells.fingerprint

(* Two shards on two real domains, run twice: the combined fingerprint
   is a pure function of (config, shards) no matter how the domains
   interleaved. *)
let sharded_double_run_agrees () =
  Horus_layers.Init.register_all ();
  let a = Horus_check.Soak.run_sharded ~shards:2 small_soak in
  let b = Horus_check.Soak.run_sharded ~shards:2 small_soak in
  Alcotest.(check bool) "first passed" true
    (Array.for_all Horus_check.Soak.ok a.Horus_check.Cells.cells);
  Alcotest.(check int64) "fingerprints agree"
    a.Horus_check.Cells.fingerprint b.Horus_check.Cells.fingerprint

(* --- driver scaling: more backends than FD_SETSIZE ------------------ *)

(* 1200 loopback backends under one wall-clock driver: the pump and
   idle wait must not assume select's 1024-fd ceiling (loopback has no
   fds; the socket case rides poll(2) — Sysops.poll_in — for the same
   reason). A frame between two of them still arrives promptly. *)
let driver_hosts_1200_backends () =
  let engine = Horus_sim.Engine.create () in
  let hub = T.Loopback.hub engine in
  let backends =
    List.init 1200 (fun i -> T.Loopback.create ~addr:(Printf.sprintf "mem:%d" i) hub)
  in
  let driver = T.Driver.create ~max_tick:0.005 engine backends in
  let got = ref None in
  let b0 = List.nth backends 0 and b7 = List.nth backends 777 in
  b7.T.Backend.set_rx (fun ~src frame -> got := Some (src, Bytes.to_string frame));
  b0.T.Backend.send ~dest:b7.T.Backend.local_addr (Bytes.of_string "wide");
  Alcotest.(check bool) "delivered" true
    (T.Driver.run_until ~timeout:5.0 driver (fun () -> !got <> None));
  match !got with
  | Some (src, payload) ->
    Alcotest.(check string) "src" "mem:0" src;
    Alcotest.(check string) "payload" "wide" payload
  | None -> assert false

let () =
  Alcotest.run "shard"
    [ ( "run",
        [ Alcotest.test_case "results in shard order" `Quick run_in_shard_order;
          Alcotest.test_case "exceptions propagate" `Quick run_propagates_failure ] );
      ( "determinism",
        [ Alcotest.test_case "shards=1 equals the plain run" `Slow sharded_one_equals_plain;
          Alcotest.test_case "sharded double run agrees" `Slow sharded_double_run_agrees ] );
      ( "driver",
        [ Alcotest.test_case "1200 backends on one driver" `Quick driver_hosts_1200_backends ] ) ]
