(* The three cast workloads over the deployed UDP path.

   Every member is an endpoint of the Section-7 stack
   TOTAL:MBRSHIP:FRAG:NAK:COM, bound to real 127.0.0.1 sockets through
   Transport_link (a dedicated socket per member, or members of many
   groups multiplexed over a few shared sockets), driven by one
   Driver on one domain. Groups form from an in-process directory
   service: each member registers its binding, lists the group, and
   joins through the founder it found there. No library option is set:
   the fast path, layer skipping and UDP batching stay at their
   defaults. The delivery logs of Group are off ([record:false]), as
   for any long-running member; the benchmark keeps its own.

   A run builds the world [setups] times (each build timed from world
   creation to every member holding the full initial view), keeps the
   last, warms it up, measures for the requested seconds, drains, and
   hands every delivery to the {!Checker}. *)

open Horus
module T = Horus_transport
module D = Horus_dir
module E = Horus_hcpi.Event
module V = Horus_hcpi.View

let spec = "TOTAL:MBRSHIP:FRAG:NAK:COM"
let layers = [ "TOTAL"; "MBRSHIP"; "FRAG"; "NAK"; "COM" ]
let lease = 10.0

type load =
  | Closed of int   (* casts each member keeps outstanding *)
  | Open of float   (* total casts per second, round-robin *)

type shape = {
  name : string;
  groups : int;
  size : int;       (* members per group *)
  payload : int;    (* bytes per cast *)
  sockets : int;    (* 0: a dedicated socket per member; k: k shared sockets *)
  load : load;
  churn : bool;     (* crash and join during the measured phase, not after it *)
}

let shapes =
  [ { name = "small-n8"; groups = 1; size = 8; payload = 64; sockets = 0; load = Closed 4;
      churn = false };
    { name = "bulk-16k"; groups = 1; size = 4; payload = 16384; sockets = 0; load = Closed 2;
      churn = false };
    { name = "groups-mux"; groups = 32; size = 4; payload = 64; sockets = 8;
      load = Open 3000.0; churn = false };
    { name = "groups-churn"; groups = 32; size = 4; payload = 64; sockets = 8;
      load = Open 3000.0; churn = true } ]

let find_shape name = List.find_opt (fun s -> s.name = name) shapes

(* The seconds-long variant the benchmark's own test runs. *)
let smoke s =
  match s.load with
  | Open rate -> { s with groups = 8; load = Open (rate /. 4.0) }
  | Closed _ -> s

type timing = {
  seconds : float;   (* measured phase *)
  warmup : float;
  setups : int;
  probes : int;        (* crash+join probes after the phase *)
  join_cycles : int;   (* join+leave cycles after the probes *)
  limit : float;     (* wall-clock budget for the whole run *)
}

exception Timed_out of string

let now_ns = Spans.now_ns
let secs ns = float_of_int ns /. 1e9

(* Seeded draws for sender order, victims and join times. *)
let draw seed k = Checker.mix (seed * 7919 + k)

type member = {
  eid : int;
  gi : int;
  slot : int;
  ep : Endpoint.t;
  client : D.Dir_client.t;
  addr : string;                    (* socket address registered *)
  own : T.Backend.t list;           (* sockets only this member uses *)
  mc : Checker.member;
  mutable gr : Group.t option;
  mutable renewal : D.Dir_client.renewal option;
  mutable crashed : bool;
  mutable view : int list;          (* eids of the installed view *)
  mutable installs : (int * int list) list;  (* (ns, eids), newest first *)
}

type span_names = {
  n_cast : int;
  n_upcall : int;
  n_xmit : int;
  n_send : int;
  n_poll : int;
  n_rx : int;
}

type ctx = {
  shape : shape;
  seed : int;
  deadline : int;                   (* ns *)
  sp : Spans.t option;
  names : span_names option;
  world : World.t;
  engine : Horus_sim.Engine.t;
  link : Transport_link.t;
  peers : T.Peers.t;
  chk : Checker.t;
  mutable all : T.Backend.t list;   (* every socket opened, closed at the end *)
  mutable live : T.Backend.t list;  (* sockets the Driver polls *)
  mutable driver : T.Driver.t;
  dir : D.Dir_service.t;
  dir_addr : string;
  mutable muxes : Transport_link.mux array;
  mutable shared_clients : D.Dir_client.t array;
  gids : Addr.group array;
  mutable members : member list array;     (* per group, oldest first *)
  by_eid : (int, member) Hashtbl.t;
  mutable next_eid : int;
  mutable victims : int list;
  (* measurement *)
  mutable casting : bool;
  mutable attempted : int;
  t0_ns : Ibuf.t;                   (* per completed cast: issue or due time *)
  done_ns : Ibuf.t;                 (* per completed cast: last owed delivery *)
  mutable sampling : bool;          (* record the two below: the untraced measured window *)
  late_ns : Ibuf.t;                 (* per cast: issue minus due *)
  mutable pending_max : int;
  mutable reg_ms : float list;
  mutable list_ms : float list;
  mutable polls : int;
  mutable empty_polls : int;
}

let pump ctx = ignore (T.Driver.step ~max_wait:0.01 ctx.driver)

let run_until ctx what pred =
  while not (pred ()) do
    if now_ns () > ctx.deadline then raise (Timed_out what);
    pump ctx
  done

let run_for ctx s =
  let stop = now_ns () + int_of_float (s *. 1e9) in
  run_until ctx "run_for" (fun () -> now_ns () >= stop)

let refresh_driver ctx = ctx.driver <- T.Driver.create ctx.engine ctx.live

(* A socket on an ephemeral 127.0.0.1 port. Udp.create sets
   SO_REUSEADDR before binding, and with it Linux may hand port 0 a port
   another socket of this process already holds; the two then share the
   port and one of them never receives. Such a socket is set aside and
   another bound (the ones set aside are closed once a free port is
   found).

   Traced runs wrap the backend's record fields: sends, polls (with the
   rx callbacks they drive nested inside) and the rx callback the link
   installs. Every wrapper tests whether the recorder is on before it
   builds the closure it times, so that while it is off a wrapped call
   allocates nothing more than the raw one. *)
let udp ctx =
  let taken b = List.exists (fun o -> o.T.Backend.local_addr = b.T.Backend.local_addr) ctx.all in
  let rec bind aside =
    let b = T.Udp.create ~bind:"127.0.0.1:0" () in
    if taken b then bind (b :: aside)
    else begin
      List.iter (fun o -> o.T.Backend.close ()) aside;
      b
    end
  in
  let b = bind [] in
  ctx.all <- b :: ctx.all;
  match (ctx.sp, ctx.names) with
  | Some sp, Some n ->
    { b with
      T.Backend.send =
        (fun ~dest bytes ->
           if Spans.enabled sp then
             Spans.span sp n.n_send ~cast:(-1) (fun () -> b.T.Backend.send ~dest bytes)
           else b.T.Backend.send ~dest bytes);
      poll =
        (fun () ->
           let k = Spans.span sp n.n_poll ~cast:(-1) b.T.Backend.poll in
           if Spans.enabled sp then begin
             ctx.polls <- ctx.polls + 1;
             if k = 0 then ctx.empty_polls <- ctx.empty_polls + 1
           end;
           k);
      set_rx =
        (fun rx ->
           b.T.Backend.set_rx (fun ~src bytes ->
               if Spans.enabled sp then Spans.span sp n.n_rx ~cast:(-1) (fun () -> rx ~src bytes)
               else rx ~src bytes)) }
  | _ -> b

let wrap_attachment ctx (a : Endpoint.attachment) =
  match (ctx.sp, ctx.names) with
  | Some sp, Some n ->
    { a with
      Endpoint.a_xmit =
        (fun ~gid ~dst p ->
           if Spans.enabled sp then
             Spans.span sp n.n_xmit ~cast:(-1) (fun () -> a.Endpoint.a_xmit ~gid ~dst p)
           else a.Endpoint.a_xmit ~gid ~dst p) }
  | _ -> a

let owed ctx m = List.filter (fun e -> not (List.mem e ctx.victims)) m.view

let record_completion ctx (c : Checker.cast) =
  Ibuf.push ctx.t0_ns c.Checker.c_t0;
  Ibuf.push ctx.done_ns (now_ns ())

(* Issue one cast from [m]; [due] is the open loop's due time. Always
   called from an engine event of its own. *)
let cast ctx m ~due =
  match m.gr with
  | Some gr when not m.crashed ->
    if ctx.sampling then begin
      Ibuf.push ctx.late_ns (now_ns () - due);
      let pending = Horus_sim.Engine.pending ctx.engine in
      if pending > ctx.pending_max then ctx.pending_max <- pending
    end;
    let g = Checker.group ctx.chk ~gid:(Addr.group_id ctx.gids.(m.gi)) in
    let c = Checker.issue g ~origin:m.eid ~owed:(owed ctx m) ~t0:0 in
    let p = Checker.payload ctx.chk ~origin:m.eid ~seq:c.Checker.c_seq in
    if not (List.mem m.eid ctx.victims) then ctx.attempted <- ctx.attempted + 1;
    c.Checker.c_t0 <- (match ctx.shape.load with Open _ -> due | Closed _ -> now_ns ());
    (match (ctx.sp, ctx.names) with
     | Some sp, Some n when Spans.enabled sp ->
       Spans.span sp n.n_cast ~cast:(Checker.cast_id ~origin:m.eid ~seq:c.Checker.c_seq)
         (fun () -> Group.cast gr p)
     | _ -> Group.cast gr p)
  | _ -> ()

let schedule_cast ctx m =
  let due = now_ns () in
  ignore (Horus_sim.Engine.schedule ctx.engine ~delay:0.0 (fun () -> cast ctx m ~due))

let on_up ctx m ev =
  match ev with
  | E.U_cast (_, msg, _) ->
    let buf, off, len = Msg.view msg in
    (match ctx.sp with
     | Some sp when Spans.enabled sp && len >= Checker.header ->
       Spans.tag_cast sp
         (Checker.cast_id ~origin:(Int64.to_int (Bytes.get_int64_le buf off))
            ~seq:(Int64.to_int (Bytes.get_int64_le buf (off + 8))))
     | _ -> ());
    (match Checker.on_deliver m.mc buf ~off ~len with
     | Some c ->
       record_completion ctx c;
       (match (ctx.shape.load, Hashtbl.find_opt ctx.by_eid c.Checker.c_origin) with
        | Closed _, Some origin when ctx.casting -> schedule_cast ctx origin
        | _ -> ())
     | None -> ())
  | E.U_view v ->
    let eids = List.sort compare (List.map Addr.endpoint_id (V.members v)) in
    m.view <- eids;
    m.installs <- (now_ns (), eids) :: m.installs;
    Checker.on_view m.mc ~key:(V.ltime v, Addr.endpoint_id (V.coordinator v))
  | _ -> ()

let traced_up ctx m =
  match (ctx.sp, ctx.names) with
  | Some sp, Some n ->
    fun ev ->
      if Spans.enabled sp then Spans.span sp n.n_upcall ~cast:(-1) (fun () -> on_up ctx m ev)
      else on_up ctx m ev
  | _ -> on_up ctx m

(* A member on socket [slot]: a shared mux socket, or (slot = -1)
   a dedicated data socket plus its own directory socket. *)
let new_member ctx ~gi ~slot ~initial =
  let eid = ctx.next_eid in
  ctx.next_eid <- eid + 1;
  let g = Checker.group ctx.chk ~gid:(Addr.group_id ctx.gids.(gi)) in
  let mc = Checker.member g ~eid ~initial in
  let m =
    if slot >= 0 then begin
      let mux = ctx.muxes.(slot) in
      let ep =
        Endpoint.create ~addr:(Addr.endpoint eid)
          ~attach:(fun ep -> wrap_attachment ctx (Transport_link.attach_mux ctx.link mux ep))
          ctx.world ~spec
      in
      { eid; gi; slot; ep; client = ctx.shared_clients.(slot); mc;
        addr = (Transport_link.mux_backend mux).T.Backend.local_addr; own = []; gr = None; renewal = None;
        crashed = false; view = []; installs = [] }
    end
    else begin
      let data = udp ctx and dsock = udp ctx in
      let ep =
        Endpoint.create ~addr:(Addr.endpoint eid)
          ~attach:(fun ep ->
              wrap_attachment ctx (Transport_link.attach ctx.link ~backend:data ~peers:ctx.peers ep))
          ctx.world ~spec
      in
      let client =
        D.Dir_client.create ~eid ~engine:ctx.engine (fun f ->
            dsock.T.Backend.send ~dest:ctx.dir_addr f)
      in
      dsock.T.Backend.set_rx (fun ~src f -> D.Dir_client.rx_frame client ~src f);
      ctx.live <- ctx.live @ [ data; dsock ];
      { eid; gi; slot; ep; client; addr = data.T.Backend.local_addr; own = [ data; dsock ]; mc;
        gr = None; renewal = None; crashed = false; view = []; installs = [] }
    end
  in
  Hashtbl.replace ctx.by_eid eid m;
  ctx.members.(gi) <- ctx.members.(gi) @ [ m ];
  m

let ms_since t = secs (now_ns () - t) *. 1000.0

let fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Register [m]'s binding (and keep it renewed), then [k]. *)
let register ctx m k =
  let gid = Addr.group_id ctx.gids.(m.gi) in
  let t = now_ns () in
  D.Dir_client.register m.client ~group:gid ~rank:m.eid ~addr:m.addr ~lease (fun r ->
      ignore (fail "directory register" r);
      ctx.reg_ms <- ms_since t :: ctx.reg_ms;
      m.renewal <- Some (D.Dir_client.keepalive m.client ~group:gid ~rank:m.eid ~addr:m.addr ~lease);
      k ())

(* List [m]'s group, learn every binding, and join through the oldest
   other member found there (the founder, never a crash victim). *)
let list_and_join ?(on_join = ignore) ctx m =
  let gid = Addr.group_id ctx.gids.(m.gi) in
  let t = now_ns () in
  D.Dir_client.list_group m.client ~group:gid (fun r ->
      let _, es = fail "directory list" r in
      ctx.list_ms <- ms_since t :: ctx.list_ms;
      List.iter (fun (rank, addr) -> T.Peers.add ctx.peers ~rank ~addr) es;
      let contact =
        match List.filter (fun (r, _) -> r <> m.eid) es with
        | (r, _) :: _ -> Some (Addr.endpoint r)
        | [] -> None
      in
      on_join ();
      m.gr <- Some (Group.join ?contact ~record:false ~on_up:(traced_up ctx m) m.ep ctx.gids.(m.gi)))

let found ctx m =
  m.gr <- Some (Group.join ~record:false ~on_up:(traced_up ctx m) m.ep ctx.gids.(m.gi))

let span_names sp =
  { n_cast = Spans.name sp "core.cast";
    n_upcall = Spans.name sp "app.upcall";
    n_xmit = Spans.name sp "core.link_xmit";
    n_send = Spans.name sp "transport.udp_send";
    n_poll = Spans.name sp "transport.udp_poll";
    n_rx = Spans.name sp "core.link_rx" }

(* One world, formed, checked by [chk]: returns the context and its
   set-up seconds. *)
let build shape ~seed ~traced ~deadline ~chk =
  (* The previous worlds' garbage is the benchmark's, not this set-up's. *)
  Gc.full_major ();
  let t_start = now_ns () in
  let sp = if traced then Some (Spans.create ()) else None in
  let world = World.create () in
  let engine = World.engine world in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let dir_raw = T.Udp.create ~bind:"127.0.0.1:0" () in
  let dir = D.Dir_service.create ~max_lease:(2.0 *. lease) ~engine dir_raw in
  let ctx =
    { shape; seed; deadline; sp; names = Option.map span_names sp; world; engine; link; peers;
      chk; all = [ dir_raw ]; live = [ dir_raw ];
      driver = T.Driver.create engine [];
      dir; dir_addr = dir_raw.T.Backend.local_addr; muxes = [||]; shared_clients = [||];
      gids = Array.init shape.groups (fun _ -> World.fresh_group_addr world);
      members = Array.make shape.groups []; by_eid = Hashtbl.create 64; next_eid = 1;
      victims = []; casting = false; attempted = 0; t0_ns = Ibuf.create (); done_ns = Ibuf.create ();
      sampling = false; late_ns = Ibuf.create (); pending_max = 0; reg_ms = []; list_ms = []; polls = 0; empty_polls = 0 }
  in
  if shape.sockets > 0 then begin
    let socks = Array.init shape.sockets (fun _ -> udp ctx) in
    let muxes = Array.map (fun b -> Transport_link.mux link ~backend:b ~peers) socks in
    let clients =
      Array.mapi
        (fun s mux ->
           let cl =
             D.Dir_client.create ~eid:(1_000_000 + s) ~engine (fun f ->
                 socks.(s).T.Backend.send ~dest:ctx.dir_addr f)
           in
           Transport_link.route_raw mux ~gid:D.Dir_protocol.gid (D.Dir_client.rx cl);
           cl)
        muxes
    in
    ctx.live <- ctx.live @ Array.to_list socks;
    ctx.muxes <- muxes;
    ctx.shared_clients <- clients
  end;
  (* Member i of group j sits on shared socket (i + j) mod k: at most
     one member of a group per socket. *)
  for gi = 0 to shape.groups - 1 do
    for i = 0 to shape.size - 1 do
      let slot = if shape.sockets = 0 then -1 else (i + gi) mod shape.sockets in
      ignore (new_member ctx ~gi ~slot ~initial:true)
    done
  done;
  refresh_driver ctx;
  (* Every member registers; then each group's founder founds it and
     the others join one at a time, each through the directory, once
     the previous join has installed everywhere. *)
  let registered = ref 0 in
  Array.iter (List.iter (fun m -> register ctx m (fun () -> incr registered))) ctx.members;
  run_until ctx "registrations" (fun () -> !registered = shape.groups * shape.size);
  Array.iter (fun ms -> found ctx (List.hd ms)) ctx.members;
  for i = 1 to shape.size - 1 do
    Array.iter (fun ms -> list_and_join ctx (List.nth ms i)) ctx.members;
    let joined gi =
      List.for_all
        (fun m -> List.length m.view = i + 1)
        (List.filteri (fun k _ -> k <= i) ctx.members.(gi))
    in
    run_until ctx "initial joins" (fun () ->
        let rec go gi = gi >= shape.groups || (joined gi && go (gi + 1)) in
        go 0)
  done;
  (ctx, secs (now_ns () - t_start))

let close ctx =
  D.Dir_service.stop ctx.dir;
  List.iter (fun b -> b.T.Backend.close ()) ctx.all

(* Crash [m]: halt its stacks, abandon its lease, stop polling its own
   sockets. Peers are not told; they detect the silence. *)
let crash ctx m =
  m.crashed <- true;
  Option.iter D.Dir_client.abandon m.renewal;
  m.renewal <- None;
  Checker.exclude m.mc;
  Endpoint.crash m.ep;
  if m.own <> [] then begin
    ctx.live <- List.filter (fun b -> not (List.memq b m.own)) ctx.live;
    refresh_driver ctx
  end

(* Seconds from [t] until every one of [ms] satisfies [ok] in an
   install at or after [t]. *)
let settle_time ms ~t ok =
  List.fold_left
    (fun acc m ->
       let first =
         List.fold_left
           (fun f (at, eids) -> if at >= t && ok eids then Some at else f)
           None m.installs
       in
       match (acc, first) with
       | Some a, Some f -> Some (max a (secs (f - t)))
       | _ -> None)
    (Some 0.0) ms

let live ctx gi = List.filter (fun m -> not m.crashed) ctx.members.(gi)

(* A victim in [gi]: seeded, never the founder. *)
let pick_victim ctx gi k =
  let cands = List.filter (fun m -> not m.crashed) (List.tl ctx.members.(gi)) in
  List.nth cands (draw ctx.seed k mod List.length cands)

(* Crash [m]; returns the instant and the survivors to watch. *)
let start_crash ctx m =
  crash ctx m;
  (now_ns (), live ctx m.gi)

(* A fresh member of [gi]: on its own sockets, or on a seeded shared
   socket that no member of the group, crashed or alive, has used —
   frames name the group but not the member, so a socket that hosted a
   crashed member still receives the traffic addressed to it. *)
let start_join ctx gi k =
  let slot =
    if ctx.shape.sockets = 0 then -1
    else
      let used = List.map (fun m -> m.slot) ctx.members.(gi) in
      let free = List.filter (fun s -> not (List.mem s used)) (List.init ctx.shape.sockets Fun.id) in
      List.nth free (draw ctx.seed k mod List.length free)
  in
  let j = new_member ctx ~gi ~slot ~initial:false in
  if slot < 0 then refresh_driver ctx;
  let t = ref 0 in
  register ctx j (fun () -> list_and_join ~on_join:(fun () -> t := now_ns ()) ctx j);
  (j, t)

let excluded_by victim eids = not (List.mem victim eids)
let joined_by ctx gi j eids = List.mem j eids && List.length eids = List.length (live ctx gi)

(* Join a fresh member to [gi] and wait until every member has
   installed the enlarged view; returns the member and the seconds from
   the join downcall. *)
let join ctx gi k =
  let j, tj = start_join ctx gi k in
  let js () =
    if !tj = 0 then None else settle_time (live ctx gi) ~t:!tj (joined_by ctx gi j.eid)
  in
  run_until ctx "join" (fun () -> js () <> None);
  (j, Option.get (js ()))

(* The membership probes after the measured phase. [probe] crashes a
   seeded member of a group, waits for the excluding view, then joins a
   fresh member: (view change, join) seconds. [join_cycle] joins a fresh
   member and has it leave again, for more join samples at an unchanged
   group size. Probe k uses group (seeded + k), so probes spread over the
   groups. *)
let probe ctx k =
  let gi = (draw ctx.seed 5000 + k) mod ctx.shape.groups in
  let v = pick_victim ctx gi k in
  let tc, survivors = start_crash ctx v in
  let vc () = settle_time survivors ~t:tc (excluded_by v.eid) in
  run_until ctx "view change" (fun () -> vc () <> None);
  let _, js = join ctx gi (6000 + k) in
  (Option.get (vc ()), js)

let join_cycle ctx k =
  let gi = (draw ctx.seed 7000 + k) mod ctx.shape.groups in
  let j, js = join ctx gi (8000 + k) in
  Option.iter Group.leave j.gr;
  let others = List.filter (fun m -> m != j) (live ctx gi) in
  run_until ctx "leave" (fun () -> List.for_all (fun m -> not (List.mem j.eid m.view)) others);
  (* retire the leaver like a crashed member, releasing its lease *)
  Option.iter D.Dir_client.release j.renewal;
  j.renewal <- None;
  crash ctx j;
  List.iter (fun b -> b.T.Backend.close ()) j.own;
  js

(* {1 Load} *)

let start_closed ctx per_member =
  ctx.casting <- true;
  let ms = List.concat (Array.to_list ctx.members) in
  let order =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.mapi (fun i m -> (draw ctx.seed (1000 + i), m)) ms)
  in
  for _ = 1 to per_member do
    List.iter (fun (_, m) -> schedule_cast ctx m) order
  done

(* Open loop: cast [i] is due at start + i/rate, from group perm(i mod
   groups) and that group's next live member in turn; each cast is one
   engine event, which schedules the next. *)
let start_open ctx rate ~stop_ns =
  ctx.casting <- true;
  let g = ctx.shape.groups in
  let perm =
    Array.of_list
      (List.map snd
         (List.sort compare (List.init g (fun j -> (draw ctx.seed (2000 + j), j)))))
  in
  let turn = Array.make g 0 in
  let t0 = now_ns () in
  let period = 1e9 /. rate in
  let rec fire i () =
    let due = t0 + int_of_float (float_of_int i *. period) in
    if ctx.casting && due < stop_ns then begin
      let gi = perm.(i mod g) in
      (* only members that have joined: a fresh member's singleton view
         is not the group *)
      let live = List.filter (fun m -> List.length m.view > 1) (live ctx gi) in
      (match live with
       | [] -> ()
       | _ ->
         let m = List.nth live (turn.(gi) mod List.length live) in
         turn.(gi) <- turn.(gi) + 1;
         cast ctx m ~due);
      let next = t0 + int_of_float (float_of_int (i + 1) *. period) in
      let delay = Float.max 0.0 (secs (next - now_ns ())) in
      ignore (Horus_sim.Engine.schedule ctx.engine ~delay (fire (i + 1)))
    end
  in
  ignore (Horus_sim.Engine.schedule ctx.engine ~delay:0.0 (fire 0))

let drain ctx =
  ctx.casting <- false;
  let owed_left () =
    Hashtbl.fold
      (fun _ g acc ->
         acc
         + Hashtbl.fold
             (fun _ (c : Checker.cast) n ->
                if List.mem c.Checker.c_origin ctx.victims then n else n + 1)
             g.Checker.outstanding 0)
      ctx.chk.Checker.groups 0
  in
  let stop = now_ns () + 10_000_000_000 in
  while owed_left () > 0 && now_ns () < stop && now_ns () < ctx.deadline do
    pump ctx
  done
