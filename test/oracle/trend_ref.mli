(** The fold-based sliding-window trend that {!Qcore.Trend} replaced: the
    least-squares sums are a tuple folded oldest to newest, and every
    result is an option. A test oracle for {!Qcore.Trend}, whose slope and
    prediction must have the same bits. *)

type t

val create : window:int -> unit -> t
val observe : t -> time:float -> float -> unit
val samples : t -> int
val last : t -> float option
val slope : t -> float option
val predict : t -> horizon:float -> float option
val mean : t -> float option
