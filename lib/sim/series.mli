(** Append-only time series, the raw material for the paper's figures.

    Two usage styles:
    - sampled series: [(t, v)] pairs recorded by a periodic monitor (memory
      usage curves, Figure 2);
    - event series: [add t ~time 1.] per completion, later bucketed into
      completions-per-time-slice (Figures 3-5). *)

type t

(** [create ?name ?capacity ()] makes an empty series. [capacity]
    pre-sizes the backing arrays past the doubling ramp for collectors
    whose final length is predictable (e.g. a monitor sampling at a fixed
    interval over a known horizon). *)
val create : ?name:string -> ?capacity:int -> unit -> t
val name : t -> string

(** [add t ~time v] appends an observation. Times must be nondecreasing. *)
val add : t -> time:float -> float -> unit

val length : t -> int
val is_empty : t -> bool

(** [nth t i] is the i-th observation as [(time, value)]. *)
val nth : t -> int -> float * float

(** [last t] is the most recent observation, if any. *)
val last : t -> (float * float) option

(** [to_arrays t] is [(times, values)] as fresh arrays. *)
val to_arrays : t -> float array * float array

(** [bucket_sum t ~start ~stop ~width] sums values per time slice
    [\[start + i*width, start + (i+1)*width)]. Slices with no observations
    are [0.]. Observations outside [\[start, stop)] are dropped. Returns
    [(slice_start_time, sum)] per slice. *)
val bucket_sum :
  t -> start:float -> stop:float -> width:float -> (float * float) array

(** [values_between t ~start ~stop] is values with [start <= time < stop]. *)
val values_between : t -> start:float -> stop:float -> float array
