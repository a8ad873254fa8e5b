(* Engine shards as independent cells: one OCaml domain each.

   The sharding model follows the rest of the transport layer's
   hourglass discipline: nothing above the waist knows it is running
   on a shard. Each shard owns its own [Horus_sim.Engine], its own
   disjoint set of endpoints and groups, and its own sockets, pumped
   by its own [Driver] — a shard is a complete single-threaded Horus
   node in miniature, so every determinism argument that holds for one
   engine holds per shard. Shards share nothing: co-resident shards
   talk over the same UDP path as everything else, so there is one
   wire path to test. *)

(* Run [f] on every shard: domains for shards 1..n-1, the caller's own
   domain for shard 0, results in shard order. Any layer registration
   (Horus_layers.Init.register_all) must happen on the caller's domain
   BEFORE this call — the global registry is populated once, then read
   concurrently. A shard's exception propagates out of [run] after the
   other shards finish. *)
let run n f =
  if n < 1 then invalid_arg "Shard.run: shards must be >= 1";
  let spawned = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> f (i + 1))) in
  let first_exn = ref None in
  let first = match f 0 with r -> Some r | exception e -> first_exn := Some e; None in
  let rest =
    Array.map
      (fun d ->
         match Domain.join d with
         | r -> Some r
         | exception e -> if !first_exn = None then first_exn := Some e; None)
      spawned
  in
  match !first_exn with
  | Some e -> raise e
  | None ->
    Array.map (function Some r -> r | None -> assert false) (Array.append [| first |] rest)
