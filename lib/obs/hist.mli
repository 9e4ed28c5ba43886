(** HDR-style log-linear histogram over non-negative integers.

    Buckets are exact up to [2^(sub_bits)] and thereafter keep
    [2^(sub_bits-1)] linear sub-buckets per power of two, bounding the
    relative quantile error at roughly [2^-(sub_bits-1)] across the whole
    [int] range — the classic high-dynamic-range layout, sized here for
    values from microseconds to hundreds of megabytes in one histogram. *)

type t

(** [create ?sub_bits ()] — [sub_bits] (default [7]) sets the precision:
    larger is finer but uses more buckets. Clamped to [[2, 14]]. *)
val create : ?sub_bits:int -> unit -> t

(** Negative values are clamped to [0]. *)
val add : t -> int -> unit

val count : t -> int

(** [min]/[max]/[mean] are exact (tracked outside the buckets); they return
    [0] on an empty histogram. *)
val min : t -> int

val max : t -> int
val mean : t -> float

(** [percentile t q] for [q] in [[0, 100]]: the smallest recorded bucket
    boundary at or above the [q]-th percentile, clamped to the exact
    observed maximum. Empty histogram yields [0]; [q <= 0] yields the
    minimum; [q >= 100] the maximum. *)
val percentile : t -> float -> int

(** [percentile_ms t q] is {!percentile} of a histogram of microseconds,
    in milliseconds. *)
val percentile_ms : t -> float -> float

(** One-line summary: [count], [mean], p50/p90/p99 and [max]. *)
val pp_summary : Format.formatter -> t -> unit
