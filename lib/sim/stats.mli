(** Small online/offline statistics helpers used by metrics and reports. *)

(** Online accumulator for count/mean/variance/min/max (Welford). *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** Sample variance (n-1 denominator); [0.] with fewer than two samples. *)
  val variance : t -> float

  val min : t -> float
  val max : t -> float
  val total : t -> float
  val clear : t -> unit
  val pp : Format.formatter -> t -> unit
end

(** [percentile values q] is the exact q-quantile (linear interpolation) of
    [values]; [q] in [\[0, 1\]]. Does not modify [values]. *)
val percentile : float array -> float -> float

(** [mean values] of a nonempty array. *)
val mean : float array -> float
