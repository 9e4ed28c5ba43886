(** Sliding-window trend estimation over a memory-usage signal.

    The broker samples each subcomponent's usage periodically and needs a
    cheap prediction of near-future usage ("recognizes trends in allocation
    patterns", §3). We fit a least-squares line over the most recent
    [window] observations. The fit is a loop over the ring that allocates
    nothing. *)

type t

(** [create ~window ()] keeps the last [window] observations
    ([window >= 2]). *)
val create : window:int -> unit -> t

(** [observe t ~time v] appends a sample. Times must be nondecreasing. *)
val observe : t -> time:float -> float -> unit

(** Number of samples currently in the window. *)
val samples : t -> int

(** Most recent value, if any. *)
val last : t -> float option

(** Least-squares slope (units per second) over the window. [None] with
    fewer than two samples or a degenerate time spread. *)
val slope : t -> float option

(** [predict t ~horizon] extrapolates the fitted line [horizon] seconds past
    the last sample, clamped to [>= 0.]. Falls back to the last value when
    no slope is available; [None] when empty. *)
val predict : t -> horizon:float -> float option

(** [observe_bytes t ~time ~horizon demand] observes [demand] bytes at
    [time.fc] and returns the prediction at [horizon] in whole bytes,
    never below [demand]: what the broker asks of each component's trend
    every tick. It is [observe] then [predict], but the time comes in a
    cell and the result is an int, so no float is boxed across the
    call. *)
val observe_bytes :
  t -> time:Sim.Engine.fcell -> horizon:float -> int -> int

(** Mean of the window (for smoothing decisions). *)
val mean : t -> float option
