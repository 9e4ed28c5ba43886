(** Simulated database clients.

    Each client loops: think, pick a template, instantiate a unique query,
    submit it, and — matching the paper's observation that "aborted queries
    likely need to be resubmitted to the system" — retry on resource errors
    after a short backoff, up to a bound. *)

type config = {
  think_mean : float;  (** exponential think time between queries *)
  retry_delay : float;
      (** initial backoff before resubmitting a failed query; doubles per
          consecutive failure *)
  max_attempts : int;  (** total attempts per query before giving up *)
}

val default_config : config

type stats = {
  mutable submitted : int;  (** distinct queries issued *)
  mutable attempts : int;  (** submissions including retries *)
  mutable succeeded : int;
  mutable abandoned : int;  (** queries dropped after [max_attempts] *)
}

(** What a client needs from the server: submit a query and block until it
    completes or fails. The error is an opaque description. *)
type submit = Optimizer.Query.t -> (unit, string) result

(** [spawn eng rng ~name ~templates ~submit ~config ~stats ~until] starts a
    client process that runs until the engine clock passes [until]. Query
    instance ids are drawn from [ids] (shared across clients so every
    instantiation is globally unique). [start] (default [0.]) delays the
    first think — flash-crowd clients appear mid-run. [think_of], when
    given, maps the current simulation time to the think-time mean,
    overriding [config.think_mean] (diurnal load curves). *)
val spawn :
  ?start:float ->
  ?think_of:(float -> float) ->
  Sim.Engine.t ->
  Sim.Rng.t ->
  name:string ->
  templates:Template.t list ->
  submit:submit ->
  config:config ->
  stats:stats ->
  ids:int ref ->
  until:float ->
  unit

val make_stats : unit -> stats

(** [spawn_fleet eng ~seed ~label ~clients ...] spawns clients named
    [label-1] to [label-n] with {!spawn}. Each client's randomness is
    keyed by [(seed, its name)], not by spawn order, so a client's query
    stream does not depend on how many neighbours it has. Client [i]
    starts at [start i] (default [0.]) and submits through [submit i]. *)
val spawn_fleet :
  ?think_of:(float -> float) ->
  ?start:(int -> float) ->
  Sim.Engine.t ->
  seed:int ->
  label:string ->
  clients:int ->
  templates:Template.t list ->
  submit:(int -> submit) ->
  config:config ->
  stats:stats ->
  ids:int ref ->
  until:float ->
  unit

(** {1 The completion window}

    The paper's measure (§5): successful completions per time slice
    after a warm-up. *)

(** [counting eng series submit] is [submit] that also adds [1.] to
    [series] at each success's completion time. *)
val counting : Sim.Engine.t -> Sim.Series.t -> submit -> submit

type window = {
  slices : (float * float) array;  (** completions per slice *)
  mean_per_slice : float;
  completed : int;  (** completions inside the window *)
}

(** The mean of per-slice values; [0.] over no slices. *)
val slice_mean : (float * float) array -> float

(** [window series ~start ~stop ~slice] reads the completions counted
    into [series] over [\[start, stop)] in slices of [slice] seconds. *)
val window : Sim.Series.t -> start:float -> stop:float -> slice:float -> window
