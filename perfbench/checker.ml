(* The correctness gate: every member's delivery stream is checked as
   it arrives, and the run fails on the first broken guarantee.

   - Payloads are made here from the workload seed: a header of
     (origin, seq, key) followed by [key]'s body from a seeded pool.
     Receipt re-derives the key from (origin, seq) and compares every
     body byte, so a corrupted, truncated or misattributed payload is
     caught.
   - Per-origin FIFO: each member sees an origin's seqs consecutively
     (a repeat is a duplicate, a skip is a loss or a reorder). Members
     present from the start must see each origin from seq 0.
   - One total order, view by view: the first member to deliver
     position k of a view fixes it; every other member of the view
     must deliver the same cast at its own position k. A member that
     joins later is checked from its first view on.
   - View agreement: members that install a view's successor must have
     delivered the same sequence (count and running hash) in that view.
   - Nothing lost: a cast is owed to the members of its sender's view
     when it was issued; {!finish} counts every cast some owed member
     never delivered, and every member left behind in its last view, as
     violations.

   Members that the workload crashes are excluded before they crash:
   a crashed member may have delivered a cast no survivor ever will,
   which virtual synchrony allows. *)

let hash_mix h x = ((h lxor x) * 0x100000001b3) land max_int

(* splitmix-style finaliser over OCaml ints. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x5851f42d4c957f2d land max_int in
  let x = (x lxor (x lsr 29)) * 0x14057b7ef767814f land max_int in
  x lxor (x lsr 32)

let header = 24
let pool_size = 64

type cast = {
  c_origin : int;
  c_seq : int;
  mutable c_t0 : int;           (* ns: issue call, or due time in an open loop *)
  mutable c_owed : int list;    (* eids still to deliver it *)
}

type t = {
  seed : int;
  size : int;
  bodies : Bytes.t array;
  mutable violations : string list;
  mutable n_violations : int;
  groups : (int, group) Hashtbl.t;
}

and group = {
  g_id : int;
  g_chk : t;
  orders : (int * int, Ibuf.t) Hashtbl.t;  (* view key -> casts in delivery order *)
  outstanding : (int, cast) Hashtbl.t;     (* cast id -> cast *)
  next_seq : (int, int) Hashtbl.t;         (* origin -> seqs issued *)
  closed_views : (int * int, int * int) Hashtbl.t;  (* view key -> (count, hash) *)
  mutable members : member list;
}

and member = {
  m_eid : int;
  m_group : group;
  m_initial : bool;
  last : (int, int) Hashtbl.t;       (* origin -> last seq delivered *)
  mutable view_key : int * int;      (* (ltime, coordinator) of the current view *)
  mutable order : Ibuf.t;            (* that view's order *)
  mutable v_count : int;
  mutable v_hash : int;
  mutable excluded : bool;
}

let create ~seed ~size =
  if size < header then invalid_arg "Checker.create: payload shorter than its header";
  let bodies =
    Array.init pool_size (fun i ->
        Bytes.init (size - header) (fun j -> Char.chr (mix (seed + (i * 1_000_003) + j) land 0xff)))
  in
  { seed; size; bodies; violations = []; n_violations = 0; groups = Hashtbl.create 8 }

(* A checker with [t]'s seed and payloads but no state: one per world. *)
let renew t = { t with violations = []; n_violations = 0; groups = Hashtbl.create 8 }

let violate t fmt =
  Printf.ksprintf
    (fun s ->
       t.n_violations <- t.n_violations + 1;
       if t.n_violations <= 20 then t.violations <- s :: t.violations)
    fmt

let violations t = List.rev t.violations
let ok t = t.n_violations = 0

let cast_id ~origin ~seq = (origin lsl 32) lor seq
let key t ~origin ~seq = mix (t.seed lxor cast_id ~origin ~seq)

let payload t ~origin ~seq =
  let k = key t ~origin ~seq in
  let b = Bytes.create t.size in
  Bytes.set_int64_le b 0 (Int64.of_int origin);
  Bytes.set_int64_le b 8 (Int64.of_int seq);
  Bytes.set_int64_le b 16 (Int64.of_int k);
  Bytes.blit t.bodies.(k mod pool_size) 0 b header (t.size - header);
  Bytes.unsafe_to_string b

(* Decode and verify a received payload; [None] if it is not one this
   run made. *)
let verify t buf ~off ~len =
  if len <> t.size then None
  else
    let origin = Int64.to_int (Bytes.get_int64_le buf off) in
    let seq = Int64.to_int (Bytes.get_int64_le buf (off + 8)) in
    let k = Int64.to_int (Bytes.get_int64_le buf (off + 16)) in
    if origin < 0 || seq < 0 || k <> key t ~origin ~seq then None
    else begin
      let body = t.bodies.(k mod pool_size) in
      let n = t.size - header in
      let rec eq8 j =
        j + 8 > n
        || (Bytes.get_int64_ne buf (off + header + j) = Bytes.get_int64_ne body j
            && eq8 (j + 8))
      in
      let rec eq1 j = j >= n || (Bytes.get buf (off + header + j) = Bytes.get body j && eq1 (j + 1)) in
      if eq8 0 && eq1 (n land lnot 7) then Some (origin, seq) else None
    end

let group t ~gid =
  match Hashtbl.find_opt t.groups gid with
  | Some g -> g
  | None ->
    let g =
      { g_id = gid; g_chk = t; orders = Hashtbl.create 8;
        outstanding = Hashtbl.create 64; next_seq = Hashtbl.create 8;
        closed_views = Hashtbl.create 8; members = [] }
    in
    Hashtbl.replace t.groups gid g;
    g

let order g key =
  match Hashtbl.find_opt g.orders key with
  | Some o -> o
  | None ->
    let o = Ibuf.create () in
    Hashtbl.replace g.orders key o;
    o

let no_view = (-1, -1)

let member g ~eid ~initial =
  let m =
    { m_eid = eid; m_group = g; m_initial = initial; last = Hashtbl.create 8;
      view_key = no_view; order = order g no_view; v_count = 0; v_hash = 0;
      excluded = false }
  in
  g.members <- m :: g.members;
  m

let exclude m = m.excluded <- true

(* Record a cast about to be issued by [origin], owed to [owed]. *)
let issue g ~origin ~owed ~t0 =
  let seq = Option.value ~default:0 (Hashtbl.find_opt g.next_seq origin) in
  Hashtbl.replace g.next_seq origin (seq + 1);
  let c = { c_origin = origin; c_seq = seq; c_t0 = t0; c_owed = owed } in
  Hashtbl.replace g.outstanding (cast_id ~origin ~seq) c;
  c

let on_view m ~key =
  if not m.excluded then begin
    let k = m.view_key in
    let mine = (m.v_count, m.v_hash) in
    (match Hashtbl.find_opt m.m_group.closed_views k with
     | Some other when other <> mine ->
       violate m.m_group.g_chk
         "group %d: member %d delivered %d casts in view (%d,%d), another survivor %d"
         m.m_group.g_id m.m_eid m.v_count (fst k) (snd k) (fst other)
     | Some _ -> ()
     | None -> Hashtbl.replace m.m_group.closed_views k mine);
    m.view_key <- key;
    m.order <- order m.m_group key;
    m.v_count <- 0;
    m.v_hash <- 0
  end

(* One delivery at [m]. Returns the cast when this delivery was the
   last one owed. *)
let on_deliver m buf ~off ~len =
  let g = m.m_group in
  let t = g.g_chk in
  if m.excluded then None
  else
    match verify t buf ~off ~len with
    | None ->
      violate t "group %d: member %d received a corrupted payload (%d bytes)" g.g_id m.m_eid len;
      None
    | Some (origin, seq) ->
      let id = cast_id ~origin ~seq in
      if seq >= Option.value ~default:0 (Hashtbl.find_opt g.next_seq origin) then
        violate t "group %d: member %d delivered %d:%d, never issued" g.g_id m.m_eid origin seq;
      (match Hashtbl.find_opt m.last origin with
       | Some l when seq <= l ->
         violate t "group %d: member %d delivered %d:%d again (after %d)" g.g_id m.m_eid origin
           seq l
       | Some l when seq <> l + 1 ->
         violate t "group %d: member %d skipped from %d:%d to %d:%d" g.g_id m.m_eid origin l
           origin seq
       | None when m.m_initial && seq <> 0 ->
         violate t "group %d: member %d first delivered %d:%d" g.g_id m.m_eid origin seq
       | _ -> ());
      Hashtbl.replace m.last origin (max seq (Option.value ~default:(-1) (Hashtbl.find_opt m.last origin)));
      let k = m.v_count in
      if k < Ibuf.length m.order then begin
        let other = Ibuf.get m.order k in
        if other <> id then
          violate t "group %d: member %d delivered %d:%d at position %d of its view, others %d:%d"
            g.g_id m.m_eid origin seq k (other lsr 32) (other land 0xffffffff)
      end
      else Ibuf.push m.order id;
      m.v_count <- k + 1;
      m.v_hash <- hash_mix m.v_hash id;
      match Hashtbl.find_opt g.outstanding id with
      | Some c when List.mem m.m_eid c.c_owed ->
        c.c_owed <- List.filter (fun e -> e <> m.m_eid) c.c_owed;
        if c.c_owed = [] then begin
          Hashtbl.remove g.outstanding id;
          Some c
        end
        else None
      | _ -> None

(* Casts still owed by some member, counting only those whose origin
   was never excluded. Each of them is a violation (a loss), and so is
   every member behind the others in its last view. Call once the run
   has drained. *)
let finish t =
  let undelivered = ref 0 in
  Hashtbl.iter
    (fun _ g ->
       let excluded =
         List.filter_map (fun m -> if m.excluded then Some m.m_eid else None) g.members
       in
       Hashtbl.iter
         (fun _ c ->
            if not (List.mem c.c_origin excluded) then begin
              incr undelivered;
              violate t "group %d: cast %d:%d never delivered at %s" g.g_id c.c_origin c.c_seq
                (String.concat "," (List.map string_of_int c.c_owed))
            end)
         g.outstanding;
       List.iter
         (fun m ->
            if (not m.excluded) && m.v_count <> Ibuf.length m.order then
              violate t "group %d: member %d ended at position %d of %d in its view" g.g_id
                m.m_eid m.v_count (Ibuf.length m.order))
         g.members)
    t.groups;
  !undelivered
