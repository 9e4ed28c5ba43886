(** Health snapshot: what the supervision layer saw and did.

    Built by the server at the end of a run; printed by [dbsim health].
    The error-budget table accounts for {e every} failure by
    {!Error.code} — a non-zero total with an empty table would mean an
    anonymous failure slipped through the taxonomy, which the golden test
    treats as a bug. *)

type t = {
  duration_s : float;  (** measured interval *)
  completed : int;  (** queries that finished successfully *)
  errors : (Error.code * int) list;  (** all codes, fixed order *)
  watchdog_watched : int;  (** sessions still registered at the end *)
  watchdog_stale : int;
  watchdog_cancels : int;
  breaker_opens : int;
  breaker_reopens : int;
      (** of [breaker_opens], half-open probes that re-tripped; not
          printed *)
  breaker_closes : int;
  breakers_open : (string * Breaker.state) list;
      (** breakers not closed at the end of the run *)
  forced_reclaims : int;
}

val stuck : t -> int
(** Queries permanently stuck: still watched when the run ended. The
    supervised acceptance criterion is [stuck r = 0]. *)

val total_errors : t -> int


val pp : Format.formatter -> t -> unit
(** Render the snapshot with the error-budget table (code, SQL number,
    severity, retryability, count). *)
