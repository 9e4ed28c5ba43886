(** Byte-quantity helpers. All memory amounts in the system are [int] bytes
    (63-bit native ints — ample for the 4 GB budgets modelled here). *)

val kib : int -> int
val mib : int -> int
val gib : int -> int

(** A size in GiB, as bytes (truncated). *)
val of_gib : float -> int

val to_mib : int -> float

(** Render a byte count with a human-friendly unit, e.g. ["1.50 GiB"]. *)
val pp_bytes : Format.formatter -> int -> unit

val bytes_to_string : int -> string
