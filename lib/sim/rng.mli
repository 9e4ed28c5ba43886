(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit [Rng.t]
    so that runs are reproducible from a single seed and independent streams
    (one per client, per subsystem, ...) can be split off without
    correlation. *)

type t

(** [create seed] is a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** [split t] is a new generator whose stream is statistically independent
    of the remainder of [t]'s stream. Advances [t]. *)
val split : t -> t

(** [copy t] duplicates the exact current state (same future stream). *)
val copy : t -> t

(** [int t n] is uniform on [\[0, n)]. Requires [n > 0]. *)
val int : t -> int -> int

(** [float t x] is uniform on [\[0, x)]. Requires [x > 0.]. *)
val float : t -> float -> float

(** [exponential t ~mean] is an exponential variate with the given mean. *)
val exponential : t -> mean:float -> float

(** [weighted_choice t items] picks proportionally to the (positive)
    weights. Requires a nonempty list with positive total weight. *)
val weighted_choice : t -> (float * 'a) list -> 'a

(** [sample t a k] is [k] distinct elements of [a] ([k <= length a]). *)
val sample : t -> 'a array -> int -> 'a array
