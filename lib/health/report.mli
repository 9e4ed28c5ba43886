(** Health snapshot: completions, failures by code and queries still in
    flight.

    Built by the server at the end of a run; printed by [dbsim health].
    The error-budget table accounts for {e every} failure by
    {!Error.code} — a non-zero total with an empty table would mean an
    anonymous failure slipped through the taxonomy, which the golden test
    treats as a bug. *)

type t = {
  duration_s : float;  (** measured interval *)
  completed : int;  (** queries that finished successfully *)
  errors : (Error.code * int) list;  (** all codes, fixed order *)
  in_flight : int;  (** queries submitted and not yet settled *)
}

val stuck : t -> int
(** Queries permanently stuck: still in flight when the run ended. A
    chaos run that drained is healthy only if [stuck r = 0]. *)

val total_errors : t -> int

val pp : Format.formatter -> t -> unit
(** Render the snapshot with the error-budget table (code, SQL number,
    severity, retryability, count) under the failed-attempts total. *)
