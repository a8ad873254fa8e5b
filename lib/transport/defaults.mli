(** Transport-wide default constants: the driver's pacing bounds and
    the backends' buffering limits, kept in one place. *)

val max_tick : float
(** Default cap on any single driver sleep (seconds). *)

val min_sleep : float
(** Default floor under driver sleeps (seconds). *)

val pending_limit : int
(** Default per-endpoint bound on queued undelivered loopback
    datagrams. *)

val mmsg_batch : int
(** Default datagrams per batched syscall ({!Udp.create}'s [batch]
    when a caller opts in). *)
