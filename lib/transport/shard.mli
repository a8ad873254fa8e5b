(** Engine shards as independent cells: one OCaml domain each.

    Each shard is a complete single-threaded Horus node in miniature —
    its own engine, endpoints, sockets and driver — so per-shard
    determinism is the ordinary single-engine kind. Shards share no
    state: traffic between co-resident shards goes over the same wire
    path as traffic between processes. *)

val run : int -> (int -> 'a) -> 'a array
(** [run n f] runs [f i] for every shard [i] in [0 .. n-1] — shard 0
    on the calling domain, the rest on fresh domains — and returns the
    results in shard order. With [n = 1] no domain is spawned. Global
    registrations (e.g. [Horus_layers.Init.register_all]) must happen
    on the calling domain {e before} this call. If any shard raises,
    the first exception is re-raised after all shards finish. Raises
    [Invalid_argument] if [n < 1]. *)
