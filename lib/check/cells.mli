(** Sharded cells: N independent, complete runs of one campaign, one
    per OCaml domain ({!Horus_transport.Shard.run}).

    Every cell is an ordinary single-threaded deterministic run, and
    the combined fingerprint folds the per-cell fingerprints in shard
    order, so it is a pure function of (config, shards) no matter how
    the domains interleave. With [shards = 1] the cell runs on the
    calling domain and the combined fingerprint is the plain run's. *)

type 'r t = {
  shards : int;
  cells : 'r array;    (** in shard order *)
  fingerprint : int64; (** deterministic combined fingerprint *)
  wall : float;        (** wall seconds of the parallel section *)
}

val run :
  shards:int -> fingerprint:('r -> int64) -> key:('r -> string) -> (int -> 'r) -> 'r t
(** [run ~shards ~fingerprint ~key cell] registers every layer, then
    runs [cell i] for each shard [i]. The combined fingerprint is
    [fingerprint] of the only cell when [shards = 1], else the FNV-1a
    hash of the cells' [key]s joined in shard order. Raises
    [Invalid_argument] if [shards < 1] ({!Horus_transport.Shard.run}). *)

val to_json : ok:('r -> bool) -> ('r -> Horus_obs.Json.t) -> 'r t -> Horus_obs.Json.t
(** [shards], [ok] (every cell passed), [fingerprint], [wall_seconds]
    and the per-cell reports. *)
