(* Tests for the MBRSHIP layer: view agreement, join-as-merge, leaves,
   crash-driven flushes (including the exact Figure 2 scenario), and
   the virtual synchrony delivery guarantees. *)

open Horus

let spec = "MBRSHIP:FRAG:NAK:COM"

(* Per-member recorder: every cast delivery tagged with the epoch it
   was delivered in, and the view history. *)
type recorded = {
  mutable r_casts : (string * int) list;  (* payload, epoch at delivery; newest first *)
  mutable r_views : (int * int list) list;  (* ltime, member ids; newest first *)
}

let recorder () = { r_casts = []; r_views = [] }

let watch rec_ group =
  Group.set_on_up group (fun ev ->
      match ev with
      | Event.U_cast (_, m, _) ->
        let epoch = match Group.view group with Some v -> View.ltime v | None -> -1 in
        rec_.r_casts <- (Msg.to_string m, epoch) :: rec_.r_casts
      | Event.U_view v ->
        rec_.r_views <-
          (View.ltime v, List.map Addr.endpoint_id (View.members v)) :: rec_.r_views
      | _ -> ())

let casts_of r = List.rev_map fst r.r_casts

(* The group address a handle belongs to. *)
let g_of gr = Group.group gr

let mk_world ?(seed = 1) ?(config = Horus_sim.Net.default_config) () =
  World.create ~config ~seed ()

(* Found a group of [n] members, joined one at a time. *)
let spawn ?(spec = spec) ?(n = 3) ?(settle = 2.0) world =
  let g = World.fresh_group_addr world in
  let founder = Group.join (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.2;
  let rest =
    List.init (n - 1) (fun _ ->
        let m = Group.join ~contact:(Group.addr founder) (Endpoint.create world ~spec) g in
        World.run_for world ~duration:0.5;
        m)
  in
  World.run_for world ~duration:settle;
  founder :: rest

let check_same_view msg groups =
  let views =
    List.map
      (fun gr ->
         match Group.view gr with
         | Some v -> (View.ltime v, List.map Addr.endpoint_id (View.members v))
         | None -> (-1, []))
      groups
  in
  match views with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i v ->
         Alcotest.(check (pair int (list int))) (Printf.sprintf "%s (member %d)" msg (i + 1))
           first v)
      rest

let test_founder_singleton () =
  let world = mk_world () in
  let g = World.fresh_group_addr world in
  let a = Group.join (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.5;
  match Group.view a with
  | Some v ->
    Alcotest.(check int) "one member" 1 (View.size v);
    Alcotest.(check (option int)) "rank 0" (Some 0) (Group.my_rank a)
  | None -> Alcotest.fail "founder has no view"

let test_join_forms_pair () =
  let world = mk_world () in
  let groups = spawn ~n:2 world in
  check_same_view "pair view" groups;
  List.iter
    (fun gr ->
       Alcotest.(check int) "two members" 2
         (match Group.view gr with Some v -> View.size v | None -> 0))
    groups

let test_sequential_joins () =
  let world = mk_world () in
  let groups = spawn ~n:5 ~settle:4.0 world in
  check_same_view "five-member view" groups;
  List.iter
    (fun gr ->
       Alcotest.(check int) "five members" 5
         (match Group.view gr with Some v -> View.size v | None -> 0))
    groups

let test_concurrent_joins () =
  (* Two processes join through the same contact at the same moment;
     the grantor serializes the merges (busy requesters retry) and all
     four converge. *)
  let world = mk_world ~seed:63 () in
  let groups = spawn ~n:2 world in
  let a = List.hd groups in
  let c = Group.join ~contact:(Group.addr a) (Endpoint.create world ~spec) (g_of a) in
  let d = Group.join ~contact:(Group.addr a) (Endpoint.create world ~spec) (g_of a) in
  World.run_for world ~duration:5.0;
  let all = groups @ [ c; d ] in
  check_same_view "all four converge" all;
  Alcotest.(check int) "four members" 4
    (match Group.view a with Some v -> View.size v | None -> 0)

let test_join_during_traffic () =
  (* A member joins while the group is mid-burst: established members
     lose nothing and agree; the joiner starts cleanly at the new view
     (virtual synchrony means it never sees old-view messages). *)
  let world = mk_world ~seed:67 () in
  let groups = spawn ~n:3 world in
  let a = List.hd groups in
  for k = 0 to 29 do
    World.after world ~delay:(0.005 *. float_of_int k) (fun () ->
        Group.cast a (Printf.sprintf "t%02d" k))
  done;
  let joiner = ref None in
  World.after world ~delay:0.07 (fun () ->
      joiner := Some (Group.join ~contact:(Group.addr a) (Endpoint.create world ~spec) (g_of a)));
  World.run_for world ~duration:5.0;
  let j = Option.get !joiner in
  (* Established members have the full stream, in order. *)
  List.iteri
    (fun i gr ->
       Alcotest.(check (list string)) (Printf.sprintf "member %d complete" i)
         (List.init 30 (Printf.sprintf "t%02d"))
         (Group.casts gr))
    groups;
  (* The joiner's stream is a contiguous suffix. *)
  let jc = Group.casts j in
  (match jc with
   | [] -> ()
   | first :: _ ->
     let start = int_of_string (String.sub first 1 2) in
     Alcotest.(check (list string)) "joiner sees a contiguous suffix"
       (List.init (30 - start) (fun i -> Printf.sprintf "t%02d" (start + i)))
       jc);
  check_same_view "final view shared" (groups @ [ j ])

let test_coordinator_is_oldest () =
  let world = mk_world () in
  let groups = spawn ~n:3 world in
  let founder = List.hd groups in
  List.iter
    (fun gr ->
       match Group.view gr with
       | Some v ->
         Alcotest.(check int) "founder coordinates"
           (Addr.endpoint_id (Group.addr founder))
           (Addr.endpoint_id (View.coordinator v))
       | None -> Alcotest.fail "no view")
    groups

let test_casts_reach_all () =
  let world = mk_world () in
  let groups = spawn ~n:4 world in
  let a = List.hd groups in
  let msgs = List.init 10 (Printf.sprintf "m%02d") in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:2.0;
  List.iteri
    (fun i gr ->
       Alcotest.(check (list string)) (Printf.sprintf "member %d got all, in order" i) msgs
         (Group.casts gr))
    groups

let test_all_members_cast () =
  let world = mk_world () in
  let groups = spawn ~n:3 world in
  List.iteri (fun i gr -> Group.cast gr (Printf.sprintf "from-%d" i)) groups;
  World.run_for world ~duration:2.0;
  List.iter
    (fun gr ->
       Alcotest.(check (list string)) "everyone sees all three"
         [ "from-0"; "from-1"; "from-2" ]
         (List.sort compare (Group.casts gr)))
    groups

let test_crash_installs_new_view () =
  let world = mk_world () in
  let groups = spawn ~n:3 world in
  let a, b, c = match groups with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  Endpoint.crash (Group.endpoint c);
  World.run_for world ~duration:3.0;
  check_same_view "survivors agree" [ a; b ];
  (match Group.view a with
   | Some v ->
     Alcotest.(check int) "two survivors" 2 (View.size v);
     Alcotest.(check bool) "crashed member excluded" false (View.mem v (Group.addr c))
   | None -> Alcotest.fail "no view");
  Alcotest.(check bool) "a saw a flush" true (Group.flushes a > 0)

let test_coordinator_crash_recovery () =
  let world = mk_world () in
  let groups = spawn ~n:3 world in
  let a, b, c = match groups with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  (* a is the coordinator (oldest); kill it. *)
  Endpoint.crash (Group.endpoint a);
  World.run_for world ~duration:3.0;
  check_same_view "survivors agree" [ b; c ];
  match Group.view b with
  | Some v ->
    Alcotest.(check int) "two survivors" 2 (View.size v);
    Alcotest.(check int) "b takes over as coordinator"
      (Addr.endpoint_id (Group.addr b))
      (Addr.endpoint_id (View.coordinator v))
  | None -> Alcotest.fail "no view"

let test_double_crash () =
  let world = mk_world () in
  let groups = spawn ~n:5 ~settle:4.0 world in
  (match groups with
   | a :: b :: _ ->
     Endpoint.crash (Group.endpoint a);
     Endpoint.crash (Group.endpoint b)
   | _ -> assert false);
  World.run_for world ~duration:4.0;
  let survivors = List.filteri (fun i _ -> i >= 2) groups in
  check_same_view "three survivors agree" survivors;
  List.iter
    (fun gr ->
       Alcotest.(check int) "three members" 3
         (match Group.view gr with Some v -> View.size v | None -> 0))
    survivors

let test_crash_during_flush () =
  (* A second member dies while the first flush is running; the
     coordinator must restart the flush and still converge. *)
  let world = mk_world () in
  let groups = spawn ~n:4 ~settle:3.0 world in
  (match groups with
   | _ :: _ :: c :: d :: _ ->
     Endpoint.crash (Group.endpoint d);
     (* NAK suspicion fires ~0.25s later; crash c in the middle of the
        resulting flush. *)
     World.after world ~delay:0.35 (fun () -> Endpoint.crash (Group.endpoint c))
   | _ -> assert false);
  World.run_for world ~duration:5.0;
  let survivors = List.filteri (fun i _ -> i < 2) groups in
  check_same_view "two survivors agree" survivors;
  List.iter
    (fun gr ->
       Alcotest.(check int) "two members" 2
         (match Group.view gr with Some v -> View.size v | None -> 0))
    survivors

(* The Figure 2 scenario: four processes A, B, C, D. D casts M such
   that only C receives a copy, then D crashes. The flush must spread M
   to A and B, everyone delivers M exactly once, and then the new view
   {A,B,C} installs — with M delivered *before* the view change at all
   survivors. *)
let test_figure2_flush () =
  let world = mk_world () in
  let groups = spawn ~n:4 ~settle:3.0 world in
  let a, b, c, d = match groups with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false in
  let recs = List.map (fun gr -> let r = recorder () in watch r gr; r) [ a; b; c ] in
  let old_epoch = match Group.view a with Some v -> View.ltime v | None -> assert false in
  (* Cut D off from A and B (but not C), cast M, then crash D before
     the partition heals: exactly "only C received a copy". *)
  let nodes gr = Addr.endpoint_id (Group.addr gr) in
  Horus_sim.Net.partition (World.net world) [ [ nodes c; nodes d ]; [ nodes a; nodes b ] ];
  Group.cast d "M";
  World.run_for world ~duration:0.02;  (* M reaches C only *)
  Endpoint.crash (Group.endpoint d);
  Horus_sim.Net.heal (World.net world);
  World.run_for world ~duration:5.0;
  (* All survivors delivered M exactly once. *)
  List.iteri
    (fun i r ->
       Alcotest.(check (list string)) (Printf.sprintf "survivor %d delivered M once" i) [ "M" ]
         (casts_of r))
    recs;
  (* M was delivered in the old view, before the new view installed. *)
  List.iteri
    (fun i r ->
       match r.r_casts with
       | [ ("M", at_epoch) ] ->
         Alcotest.(check int) (Printf.sprintf "survivor %d: M in old view" i) old_epoch at_epoch
       | _ -> Alcotest.fail "unexpected cast record")
    recs;
  (* The new view excludes D and is agreed. *)
  check_same_view "survivors agree on {A,B,C}" [ a; b; c ];
  match Group.view a with
  | Some v ->
    Alcotest.(check int) "three members" 3 (View.size v);
    Alcotest.(check bool) "D excluded" false (View.mem v (Group.addr d))
  | None -> Alcotest.fail "no view"

(* The straggler race found by the model checker (lib/model): D casts M
   and crashes; M's only surviving copy is in flight toward C and lands
   *after* C has replied to the flush but *before* the new view
   installs. Per Section 5, C must ignore it ("the members ignore
   messages that they may receive from supposedly failed members") —
   otherwise C alone delivers M and virtual synchrony breaks. *)
let test_straggler_from_failed_member_ignored () =
  let world = mk_world () in
  let groups = spawn ~n:4 ~settle:3.0 world in
  let a, b, c, d = match groups with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false in
  let recs = List.map (fun gr -> let r = recorder () in watch r gr; r) [ a; b; c ] in
  let net = World.net world in
  let node gr = Addr.endpoint_id (Group.addr gr) in
  (* M will reach c in 50 ms and a/b effectively never; a's flush
     request to b dawdles so the flush stays open past M's arrival. *)
  Horus_sim.Net.set_link_latency net ~src:(node d) ~dst:(node a) (Some 100.0);
  Horus_sim.Net.set_link_latency net ~src:(node d) ~dst:(node b) (Some 100.0);
  Horus_sim.Net.set_link_latency net ~src:(node d) ~dst:(node c) (Some 0.05);
  Horus_sim.Net.set_link_latency net ~src:(node a) ~dst:(node b) (Some 0.08);
  Group.cast d "M";
  Endpoint.crash (Group.endpoint d);
  Group.suspect a [ Group.addr d ];
  World.run_for world ~duration:5.0;
  (* Nobody may deliver M: the only copy arrived post-reply at c. *)
  List.iteri
    (fun i r ->
       Alcotest.(check (list string)) (Printf.sprintf "survivor %d delivered nothing" i) []
         (casts_of r))
    recs;
  check_same_view "survivors agree" [ a; b; c ];
  Alcotest.(check int) "three members" 3
    (match Group.view a with Some v -> View.size v | None -> 0)

let test_straggler_before_reply_is_forwarded () =
  (* Control: if M reaches c *before* the flush reply, it is in c's
     reply and the coordinator forwards it — everyone delivers it. *)
  let world = mk_world () in
  let groups = spawn ~n:4 ~settle:3.0 world in
  let a, b, c, d = match groups with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false in
  let recs = List.map (fun gr -> let r = recorder () in watch r gr; r) [ a; b; c ] in
  let net = World.net world in
  let node gr = Addr.endpoint_id (Group.addr gr) in
  Horus_sim.Net.set_link_latency net ~src:(node d) ~dst:(node a) (Some 100.0);
  Horus_sim.Net.set_link_latency net ~src:(node d) ~dst:(node b) (Some 100.0);
  Horus_sim.Net.set_link_latency net ~src:(node d) ~dst:(node c) (Some 0.0001);
  Group.cast d "M";
  Endpoint.crash (Group.endpoint d);
  Group.suspect a [ Group.addr d ];
  World.run_for world ~duration:5.0;
  List.iteri
    (fun i r ->
       Alcotest.(check (list string)) (Printf.sprintf "survivor %d delivered M" i) [ "M" ]
         (casts_of r))
    recs;
  check_same_view "survivors agree" [ a; b; c ]

let test_leave_graceful () =
  let world = mk_world () in
  let groups = spawn ~n:3 world in
  let a, b, c = match groups with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  Group.leave c;
  World.run_for world ~duration:2.0;
  Alcotest.(check bool) "leaver exited" true (Group.exited c);
  check_same_view "remaining agree" [ a; b ];
  match Group.view a with
  | Some v ->
    Alcotest.(check int) "two remain" 2 (View.size v);
    Alcotest.(check bool) "leaver gone" false (View.mem v (Group.addr c))
  | None -> Alcotest.fail "no view"

let test_coordinator_leaves () =
  let world = mk_world () in
  let groups = spawn ~n:3 world in
  let a, b, c = match groups with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  Group.leave a;
  World.run_for world ~duration:2.0;
  Alcotest.(check bool) "coordinator exited" true (Group.exited a);
  check_same_view "remaining agree" [ b; c ];
  match Group.view b with
  | Some v ->
    Alcotest.(check int) "b coordinates now"
      (Addr.endpoint_id (Group.addr b))
      (Addr.endpoint_id (View.coordinator v))
  | None -> Alcotest.fail "no view"

let test_singleton_leave () =
  let world = mk_world () in
  let g = World.fresh_group_addr world in
  let a = Group.join (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.5;
  Group.leave a;
  World.run_for world ~duration:0.5;
  Alcotest.(check bool) "exited" true (Group.exited a)

let test_external_suspicion () =
  (* The external failure detector of Section 5: the application
     injects a suspicion; the membership layer must reconfigure even
     though the network-level detector saw nothing. *)
  let world = mk_world () in
  let groups = spawn ~n:3 world in
  let a, b, c = match groups with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  (* Silence c first so it cannot protest its exclusion, then tell a. *)
  Endpoint.crash (Group.endpoint c);
  Group.suspect a [ Group.addr c ];
  World.run_for world ~duration:1.0;
  check_same_view "a and b agree quickly" [ a; b ];
  match Group.view a with
  | Some v -> Alcotest.(check int) "two members" 2 (View.size v)
  | None -> Alcotest.fail "no view"

let test_virtual_synchrony_under_traffic () =
  (* Continuous casting while a member crashes: every survivor must
     deliver exactly the same set of messages per epoch, with no gaps
     in any origin's sequence, and agree on the final view. *)
  let world = mk_world ~seed:21 () in
  let groups = spawn ~n:4 ~settle:3.0 world in
  let a, b, c, d = match groups with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false in
  let recs = List.map (fun gr -> let r = recorder () in watch r gr; r) [ a; b; c ] in
  (* a and b cast 30 messages each, 1ms apart; d dies in the middle. *)
  List.iteri
    (fun i gr ->
       for k = 0 to 29 do
         World.after world ~delay:(0.001 *. float_of_int k) (fun () ->
             Group.cast gr (Printf.sprintf "s%d-%02d" i k))
       done)
    [ a; b ];
  World.after world ~delay:0.015 (fun () -> Endpoint.crash (Group.endpoint d));
  World.run_for world ~duration:6.0;
  (* Survivors deliver identical ordered per-origin subsequences. *)
  let per_origin r prefix =
    List.filter (fun (p, _) -> String.length p > 2 && String.sub p 0 2 = prefix)
      (List.rev r.r_casts)
  in
  let r0 = List.hd recs in
  List.iteri
    (fun i r ->
       List.iter
         (fun prefix ->
            Alcotest.(check (list (pair string int)))
              (Printf.sprintf "survivor %d matches survivor 0 on %s (incl. epochs)" i prefix)
              (per_origin r0 prefix) (per_origin r prefix))
         [ "s0"; "s1" ])
    recs;
  (* Nothing lost: 30 messages from each caster. *)
  List.iteri
    (fun i r ->
       Alcotest.(check int) (Printf.sprintf "survivor %d: all of a's casts" i) 30
         (List.length (per_origin r "s0"));
       Alcotest.(check int) (Printf.sprintf "survivor %d: all of b's casts" i) 30
         (List.length (per_origin r "s1")))
    recs;
  check_same_view "final view agreed" [ a; b; c ]

let test_view_histories_consistent () =
  (* Views installed at different members must form consistent
     sequences: every (ltime, membership) pair seen by two members is
     identical. *)
  let world = mk_world () in
  let groups = spawn ~n:4 ~settle:3.0 world in
  (match groups with
   | _ :: _ :: _ :: d :: _ -> Endpoint.crash (Group.endpoint d)
   | _ -> assert false);
  World.run_for world ~duration:3.0;
  let survivors = List.filteri (fun i _ -> i < 3) groups in
  (* A view id is the (ltime, coordinator) pair: two members that both
     install a view with the same id must agree on its membership. *)
  let histories =
    List.map
      (fun gr ->
         List.map
           (fun v ->
              ( (View.ltime v, Addr.endpoint_id (View.coordinator v)),
                List.map Addr.endpoint_id (View.members v) ))
           (Group.views gr))
      survivors
  in
  List.iter
    (fun h ->
       List.iter
         (fun (id, ms) ->
            List.iter
              (fun h' ->
                 match List.assoc_opt id h' with
                 | Some ms' ->
                   Alcotest.(check (list int))
                     (Printf.sprintf "view (%d,%d) consistent" (fst id) (snd id))
                     ms ms'
                 | None -> ())
              histories)
         h)
    histories

let test_merge_two_partitions () =
  (* Two groups founded independently on the same group address, then
     explicitly merged by one coordinator. *)
  let world = mk_world () in
  let g = World.fresh_group_addr world in
  let a = Group.join (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.2;
  let b = Group.join ~contact:(Group.addr a) (Endpoint.create world ~spec) g in
  World.run_for world ~duration:1.0;
  let c = Group.join (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.2;
  let d = Group.join ~contact:(Group.addr c) (Endpoint.create world ~spec) g in
  World.run_for world ~duration:1.0;
  (* {a,b} and {c,d} exist side by side. *)
  Alcotest.(check int) "a+b pair" 2 (match Group.view a with Some v -> View.size v | None -> 0);
  Alcotest.(check int) "c+d pair" 2 (match Group.view c with Some v -> View.size v | None -> 0);
  (* c (younger coordinator) merges into a's partition. *)
  Group.merge c (Group.addr a);
  World.run_for world ~duration:3.0;
  check_same_view "union view" [ a; b; c; d ];
  match Group.view a with
  | Some v -> Alcotest.(check int) "four members" 4 (View.size v)
  | None -> Alcotest.fail "no view"

let test_partition_heal_remerge () =
  (* A real partition: the network splits a 4-member group 2/2, both
     sides reconfigure, the network heals, and an explicit merge
     reunites them. *)
  let world = mk_world ~seed:33 () in
  let groups = spawn ~n:4 ~settle:3.0 world in
  let a, b, c, d = match groups with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false in
  let n gr = Addr.endpoint_id (Group.addr gr) in
  Horus_sim.Net.partition (World.net world) [ [ n a; n b ]; [ n c; n d ] ];
  World.run_for world ~duration:4.0;
  (* Both sides installed their own 2-member views. *)
  check_same_view "side 1" [ a; b ];
  check_same_view "side 2" [ c; d ];
  Alcotest.(check int) "side1 size" 2
    (match Group.view a with Some v -> View.size v | None -> 0);
  Alcotest.(check int) "side2 size" 2
    (match Group.view c with Some v -> View.size v | None -> 0);
  Horus_sim.Net.heal (World.net world);
  World.run_for world ~duration:1.0;
  (* c coordinates its side; merge back into a's side. *)
  Group.merge c (Group.addr a);
  World.run_for world ~duration:4.0;
  check_same_view "healed union" [ a; b; c; d ];
  Alcotest.(check int) "four again" 4
    (match Group.view a with Some v -> View.size v | None -> 0)

(* Section 9: the Isis-style primary-partition progress restriction.
   Only the partition holding a strict majority of the previous view
   may install the next view; minority members halt (EXIT) and rejoin
   once connectivity returns. *)
let test_primary_partition_mode () =
  let pp_spec = "MBRSHIP(primary_partition=true):FRAG:NAK:COM" in
  let world = mk_world ~seed:51 () in
  let groups = spawn ~spec:pp_spec ~n:5 ~settle:4.0 world in
  let majority = List.filteri (fun i _ -> i < 3) groups in
  let minority = List.filteri (fun i _ -> i >= 3) groups in
  let n gr = Addr.endpoint_id (Group.addr gr) in
  Horus_sim.Net.partition (World.net world)
    [ List.map n majority; List.map n minority ];
  World.run_for world ~duration:4.0;
  (* The majority side reconfigures and continues... *)
  check_same_view "majority installs" majority;
  Alcotest.(check int) "majority of three" 3
    (match Group.view (List.hd majority) with Some v -> View.size v | None -> 0);
  (* ...the minority halts instead of forming a rival view. *)
  List.iteri
    (fun i gr ->
       Alcotest.(check bool) (Printf.sprintf "minority member %d exited" i) true
         (Group.exited gr))
    minority;
  (* Progress on the primary side is unaffected. *)
  Group.cast (List.hd majority) "primary only";
  World.run_for world ~duration:1.0;
  List.iter
    (fun gr ->
       Alcotest.(check bool) "primary delivers" true
         (List.mem "primary only" (Group.casts gr)))
    majority;
  (* Connectivity returns; the halted processes rejoin as fresh
     members. *)
  Horus_sim.Net.heal (World.net world);
  let reborn =
    List.map
      (fun gr ->
         Group.join ~contact:(Group.addr (List.hd majority))
           (Endpoint.create world ~spec:pp_spec) (Group.group gr))
      minority
  in
  World.run_for world ~duration:4.0;
  check_same_view "whole group reunited" (majority @ reborn);
  Alcotest.(check int) "five members again" 5
    (match Group.view (List.hd majority) with Some v -> View.size v | None -> 0)

let test_primary_partition_no_split_brain_in_pair () =
  (* With two members, neither side of a split is a strict majority:
     both must halt rather than risk divergence. *)
  let pp_spec = "MBRSHIP(primary_partition=true):FRAG:NAK:COM" in
  let world = mk_world ~seed:53 () in
  let groups = spawn ~spec:pp_spec ~n:2 ~settle:2.0 world in
  let a, b = match groups with [ a; b ] -> (a, b) | _ -> assert false in
  Horus_sim.Net.partition (World.net world)
    [ [ Addr.endpoint_id (Group.addr a) ]; [ Addr.endpoint_id (Group.addr b) ] ];
  World.run_for world ~duration:4.0;
  Alcotest.(check bool) "a halted" true (Group.exited a);
  Alcotest.(check bool) "b halted" true (Group.exited b)

let test_merge_grantor_dies_mid_merge () =
  (* The grantor accepts the merge and then dies before installing the
     union view. The requester is blocked in a flush toward a process
     outside its own view — only the merge-abort watchdog can free it;
     it must resume as a working singleton and report the failure. *)
  let world = mk_world ~seed:57 () in
  let g = World.fresh_group_addr world in
  let a = Group.join (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.3;
  (* Slow b->a so the requester's MERGE_READY never reaches a before
     the crash, leaving b stuck awaiting the union install. *)
  let b = Group.join ~contact:(Group.addr a) (Endpoint.create world ~spec:"MBRSHIP(merge_abort=1.0,merge_retry=0.3):FRAG:NAK:COM") g in
  Horus_sim.Net.set_link_latency (World.net world)
    ~src:(Addr.endpoint_id (Group.addr b))
    ~dst:(Addr.endpoint_id (Group.addr a))
    (Some 5.0);
  World.after world ~delay:0.05 (fun () -> Endpoint.crash (Group.endpoint a));
  World.run_for world ~duration:8.0;
  Alcotest.(check bool) "b told of the failed merge" true (Group.merge_denials b <> []);
  (match Group.view b with
   | Some v ->
     Alcotest.(check int) "b is a working singleton" 1 (View.size v);
     Alcotest.(check bool) "b's epoch advanced" true (View.ltime v > 0)
   | None -> Alcotest.fail "b has no view");
  (* ...and b still works. *)
  Group.cast b "alive";
  World.run_for world ~duration:1.0;
  Alcotest.(check bool) "b delivers to itself" true (List.mem "alive" (Group.casts b))

let test_merge_denied_by_application () =
  let world = mk_world () in
  let g = World.fresh_group_addr world in
  let a =
    Group.join ~auto_flush_ok:true (Endpoint.create world ~spec:"MBRSHIP(auto_merge=false):FRAG:NAK:COM") g
  in
  World.run_for world ~duration:0.2;
  (* a's application denies all merge requests. *)
  Group.set_on_up a (fun ev ->
      match ev with
      | Event.U_merge_request req -> Group.merge_denied a req
      | _ -> ());
  let b =
    Group.join ~contact:(Group.addr a)
      (Endpoint.create world ~spec:"MBRSHIP(auto_merge=false):FRAG:NAK:COM") g
  in
  World.run_for world ~duration:2.0;
  Alcotest.(check int) "a still singleton" 1
    (match Group.view a with Some v -> View.size v | None -> 0);
  Alcotest.(check int) "b still singleton" 1
    (match Group.view b with Some v -> View.size v | None -> 0);
  Alcotest.(check bool) "b told of denial" true (Group.merge_denials b <> [])

let test_no_delivery_after_exclusion () =
  (* Once the new view installs, casts from the failed member must not
     surface (COM filters, epochs protect). *)
  let world = mk_world () in
  let groups = spawn ~n:3 world in
  let a, b, c = match groups with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  Endpoint.crash (Group.endpoint c);
  World.run_for world ~duration:3.0;
  Group.clear_deliveries a;
  Group.clear_deliveries b;
  (* Resurrect c's endpoint at the network level: its stack is dead,
     but even if it were not, its old-view traffic must be ignored.
     (The stack was killed at crash; this simply documents that nothing
     arrives.) *)
  Horus_sim.Net.recover (World.net world) ~node:(Addr.endpoint_id (Group.addr c));
  World.run_for world ~duration:1.0;
  Alcotest.(check int) "nothing from the dead at a" 0 (List.length (Group.deliveries a));
  Alcotest.(check int) "nothing from the dead at b" 0 (List.length (Group.deliveries b))

let test_scale_24_members () =
  (* A larger group: 24 members join one at a time, everyone agrees on
     the final view, multicast reaches all, and a crash reconfigures
     cleanly. *)
  let world = mk_world ~seed:99 () in
  let groups = spawn ~n:24 ~settle:6.0 world in
  check_same_view "24-member view" groups;
  Alcotest.(check int) "24 members" 24
    (match Group.view (List.hd groups) with Some v -> View.size v | None -> 0);
  Group.cast (List.hd groups) "hello, everyone";
  World.run_for world ~duration:2.0;
  List.iteri
    (fun i gr ->
       Alcotest.(check (list string)) (Printf.sprintf "member %d delivered" i)
         [ "hello, everyone" ] (Group.casts gr))
    groups;
  Endpoint.crash (Group.endpoint (List.nth groups 23));
  World.run_for world ~duration:4.0;
  let survivors = List.filteri (fun i _ -> i < 23) groups in
  check_same_view "23 survivors agree" survivors

let test_bms_views_without_forwarding () =
  (* BMS installs consistent views but does not forward unstable
     messages. *)
  let world = mk_world () in
  let bms_spec = "BMS:FRAG:NAK:COM" in
  let g = World.fresh_group_addr world in
  let a = Group.join (Endpoint.create world ~spec:bms_spec) g in
  World.run_for world ~duration:0.2;
  let b = Group.join ~contact:(Group.addr a) (Endpoint.create world ~spec:bms_spec) g in
  World.run_for world ~duration:1.0;
  check_same_view "bms pair" [ a; b ];
  Group.cast a "over-bms";
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "delivery works" [ "over-bms" ] (Group.casts b)

(* A forged NAK naming a million casts: the requested range is raw
   wire data, so the origin must answer with no more retransmissions
   and placeholders than the casts it has sent in the epoch (its
   cast_next_seq). The tap reads the origin's packets to the
   requester — a 4-byte sim gid, COM's envelope, then NAK's header:
   each data cast goes to the requester once, so the highest seq seen
   gives cast_next_seq, and a data cast below it (a retransmission) or
   a placeholder is an answer. *)
let test_forged_nak_is_bounded () =
  let world = mk_world () in
  let a, b =
    match spawn ~spec:"MBRSHIP:NAK:COM" ~n:2 world with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let node gr = Addr.endpoint_id (Group.addr gr) in
  let net = World.net world in
  let next_seq = ref 0 and epoch = ref (-1) and answers = ref 0 in
  Horus_sim.Net.set_tap net
    (Some
       (fun ~src ~dst bytes ->
          if src = node a && dst = node b then begin
            let m = Msg.of_bytes (Bytes.sub bytes 4 (Bytes.length bytes - 4)) in
            ignore (Msg.pop_u16 m);
            ignore (Msg.pop_u16 m);
            ignore (Msg.pop_u8 m);
            ignore (Horus_msg.Wire.pop_endpoint m);
            match Msg.pop_u8 m with
            | 0 ->
              epoch := Msg.pop_u32 m;
              let seq = Msg.pop_u32 m in
              if seq >= !next_seq then next_seq := seq + 1 else incr answers
            | 4 -> incr answers
            | _ -> ()
          end));
  List.iter (fun i -> Group.cast a (Printf.sprintf "c%d" i)) (List.init 5 Fun.id);
  World.run_for world ~duration:0.5;
  Alcotest.(check (list string)) "casts delivered"
    [ "c0"; "c1"; "c2"; "c3"; "c4" ] (Group.casts b);
  Alcotest.(check int) "no repairs on a lossless net" 0 !answers;
  let m = Msg.empty () in
  Msg.push_u32 m 1_000_000;  (* to_seq *)
  Msg.push_u32 m 0;          (* from_seq *)
  Msg.push_u32 m !epoch;
  Msg.push_u8 m 2;           (* NAK_CAST *)
  Horus_msg.Wire.push_endpoint m (Group.addr b);
  Msg.push_u8 m 1;           (* COM send *)
  Msg.push_u16 m (Msg.length m land 0xffff);
  Msg.push_u16 m 0x4855;     (* COM magic *)
  let gid = Bytes.create 4 in
  Bytes.set_int32_be gid 0 (Int32.of_int (Addr.group_id (g_of a)));
  Horus_sim.Net.send net ~src:(node b) ~dst:(node a) (Bytes.cat gid (Msg.to_bytes m));
  World.run_for world ~duration:0.01;
  Alcotest.(check bool) "the request was served" true (!answers > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d answers <= cast_next_seq %d" !answers !next_seq)
    true (!answers <= !next_seq)

let () =
  Alcotest.run "mbrship"
    [ ( "membership",
        [ Alcotest.test_case "founder singleton" `Quick test_founder_singleton;
          Alcotest.test_case "join forms pair" `Quick test_join_forms_pair;
          Alcotest.test_case "sequential joins to 5" `Quick test_sequential_joins;
          Alcotest.test_case "coordinator is oldest" `Quick test_coordinator_is_oldest;
          Alcotest.test_case "concurrent joins" `Quick test_concurrent_joins;
          Alcotest.test_case "join during traffic" `Quick test_join_during_traffic ] );
      ( "delivery",
        [ Alcotest.test_case "casts reach all" `Quick test_casts_reach_all;
          Alcotest.test_case "all members cast" `Quick test_all_members_cast ] );
      ( "failures",
        [ Alcotest.test_case "crash installs new view" `Quick test_crash_installs_new_view;
          Alcotest.test_case "coordinator crash" `Quick test_coordinator_crash_recovery;
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "crash during flush" `Quick test_crash_during_flush;
          Alcotest.test_case "figure 2 scenario" `Quick test_figure2_flush;
          Alcotest.test_case "external suspicion" `Quick test_external_suspicion;
          Alcotest.test_case "no delivery after exclusion" `Quick
            test_no_delivery_after_exclusion;
          Alcotest.test_case "straggler ignored (model-checker race)" `Quick
            test_straggler_from_failed_member_ignored;
          Alcotest.test_case "straggler pre-reply forwarded" `Quick
            test_straggler_before_reply_is_forwarded ] );
      ( "leave",
        [ Alcotest.test_case "graceful leave" `Quick test_leave_graceful;
          Alcotest.test_case "coordinator leaves" `Quick test_coordinator_leaves;
          Alcotest.test_case "singleton leave" `Quick test_singleton_leave ] );
      ( "virtual synchrony",
        [ Alcotest.test_case "under traffic" `Quick test_virtual_synchrony_under_traffic;
          Alcotest.test_case "view histories consistent" `Quick
            test_view_histories_consistent ] );
      ( "partitions",
        [ Alcotest.test_case "primary-partition mode" `Quick test_primary_partition_mode;
          Alcotest.test_case "no split brain in a pair" `Quick
            test_primary_partition_no_split_brain_in_pair ] );
      ( "merge",
        [ Alcotest.test_case "two partitions" `Quick test_merge_two_partitions;
          Alcotest.test_case "partition, heal, remerge" `Quick test_partition_heal_remerge;
          Alcotest.test_case "denied by application" `Quick test_merge_denied_by_application;
          Alcotest.test_case "grantor dies mid-merge" `Quick test_merge_grantor_dies_mid_merge ] );
      ( "bms",
        [ Alcotest.test_case "views without forwarding" `Quick
            test_bms_views_without_forwarding ] );
      ( "hostile input",
        [ Alcotest.test_case "forged NAK range is bounded" `Quick
            test_forged_nak_is_bounded ] );
      ( "scale",
        [ Alcotest.test_case "24 members" `Slow test_scale_24_members ] ) ]
