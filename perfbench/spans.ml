(* Span recorder for the traced run.

   A span is one call through a wrapped public boundary: its name, its
   start and end on the monotonic clock, the span open around it when
   it began (its parent), and the cast it served. The benchmark runs on
   one domain and every wrapped call nests strictly inside its caller,
   so the open spans form a stack and a span's children never overlap:
   its self time is its duration minus the summed durations of its
   children.

   Per-name totals (count, total and self nanoseconds) are kept for
   every span. Whole span records are kept only for a sample of casts,
   bounded, and written out when the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  start : int;   (* ns *)
  stop : int;    (* ns *)
  parent : int;  (* id of the enclosing span, -1 at top level *)
  cast : int;    (* cast served, -1 when none is known *)
}

type totals = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

(* Offline reference: per-name totals of a closed set of spans, self
   time being each span's duration minus its direct children's. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child s.parent
           ((s.stop - s.start) + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  let out = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let t =
         match Hashtbl.find_opt out s.name with
         | Some t -> t
         | None ->
           let t = { count = 0; total_ns = 0; self_ns = 0 } in
           Hashtbl.replace out s.name t;
           t
       in
       let d = s.stop - s.start in
       t.count <- t.count + 1;
       t.total_ns <- t.total_ns + d;
       t.self_ns <- t.self_ns + d - Option.value ~default:0 (Hashtbl.find_opt child s.id))
    spans;
  out

(* The online recorder. *)

type frame = {
  f_name : int;
  f_id : int;
  f_parent : int;
  f_start : int;
  mutable f_child : int;  (* ns covered by closed children *)
  mutable f_cast : int;
}

type t = {
  clock : unit -> int;
  mutable enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable acc : totals array;
  mutable stack : frame list;
  mutable next_id : int;
  mutable raw : span list;
  mutable raw_n : int;
}

(* Raw spans are kept for casts whose id is a multiple of
   [sample_every], at most [raw_cap] of them. *)
let sample_every = 997
let raw_cap = 20_000

let create ?(clock = now_ns) () =
  { clock;
    enabled = false;
    names = Hashtbl.create 16;
    labels = [||];
    acc = [||];
    stack = [];
    next_id = 0;
    raw = [];
    raw_n = 0 }

let set_enabled t b = t.enabled <- b
let enabled t = t.enabled

(* Name ids are registered once, when the wrappers are built. *)
let name t label =
  match Hashtbl.find_opt t.names label with
  | Some i -> i
  | None ->
    let i = Array.length t.labels in
    Hashtbl.replace t.names label i;
    t.labels <- Array.append t.labels [| label |];
    t.acc <- Array.append t.acc [| { count = 0; total_ns = 0; self_ns = 0 } |];
    i

(* A span opened with no cast id (-1) serves its parent's cast. *)
let enter t nm ~cast =
  let parent, cast =
    match t.stack with
    | f :: _ -> (f.f_id, if cast < 0 then f.f_cast else cast)
    | [] -> (-1, cast)
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.stack <-
    { f_name = nm; f_id = id; f_parent = parent; f_start = t.clock (); f_child = 0;
      f_cast = cast }
    :: t.stack

let leave t =
  match t.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | f :: rest ->
    let stop = t.clock () in
    let d = stop - f.f_start in
    t.stack <- rest;
    (match rest with p :: _ -> p.f_child <- p.f_child + d | [] -> ());
    let a = t.acc.(f.f_name) in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns + d;
    a.self_ns <- a.self_ns + d - f.f_child;
    if f.f_cast >= 0 && f.f_cast mod sample_every = 0 && t.raw_n < raw_cap then begin
      t.raw <-
        { id = f.f_id; name = t.labels.(f.f_name); start = f.f_start; stop;
          parent = f.f_parent; cast = f.f_cast }
        :: t.raw;
      t.raw_n <- t.raw_n + 1
    end

(* Attribute every open span that does not yet know its cast: a
   receive path learns which cast it carried only when the payload
   reaches the application. *)
let tag_cast t cast =
  List.iter (fun f -> if f.f_cast < 0 then f.f_cast <- cast) t.stack

let span t nm ~cast f =
  if not t.enabled then f ()
  else begin
    enter t nm ~cast;
    match f () with
    | v -> leave t; v
    | exception e -> leave t; raise e
  end

let totals t label =
  match Hashtbl.find_opt t.names label with
  | Some i -> t.acc.(i)
  | None -> { count = 0; total_ns = 0; self_ns = 0 }

let reset_totals t =
  Array.iter (fun a -> a.count <- 0; a.total_ns <- 0; a.self_ns <- 0) t.acc

let raw_spans t = List.rev t.raw

let span_json s =
  Printf.sprintf
    "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"cast\":%d}" s.id
    s.name s.start s.stop s.parent s.cast

let write_raw t path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (span_json s); output_char oc '\n') (raw_spans t);
  close_out oc
