(* Sharded cells: the campaign-level view of Shard.run. Each shard is
   an independent, complete run — same config, seed offset by the
   shard index, chosen by the caller's [cell] — so N shards exercise N
   engines genuinely in parallel while every cell stays a
   single-threaded deterministic run. Folding the per-cell
   fingerprints in shard order keeps the combined one a pure function
   of (config, shards). *)

module Json = Horus_obs.Json

type 'r t = {
  shards : int;
  cells : 'r array;
  fingerprint : int64;
  wall : float;
}

let run ~shards ~fingerprint ~key cell =
  (* Populate the global layer registry on this domain BEFORE any
     cell domain races to do it lazily inside World.create. *)
  Horus_layers.Init.register_all ();
  let t0 = Unix.gettimeofday () in
  let cells = Horus_transport.Shard.run shards cell in
  let wall = Unix.gettimeofday () -. t0 in
  { shards;
    cells;
    fingerprint =
      (if shards = 1 then fingerprint cells.(0)
       else Runner.fnv (String.concat "|" (Array.to_list (Array.map key cells))));
    wall }

let to_json ~ok cell_json s =
  Json.Obj
    [ ("shards", Json.Int s.shards);
      ("ok", Json.Bool (Array.for_all ok s.cells));
      ("fingerprint", Json.String (Printf.sprintf "%016Lx" s.fingerprint));
      ("wall_seconds", Json.Float s.wall);
      ("cells", Json.List (Array.to_list (Array.map cell_json s.cells))) ]
