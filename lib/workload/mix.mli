(** Traffic-mix knobs: parameterized-vs-ad-hoc ratio, diurnal load
    curves, and flash-crowd bursts.

    The paper's SALES workload deliberately uniquifies every statement to
    defeat caching; real fleets serve a blend. [mixed_templates] weights
    the stable parameterized variants against the uniquified ad-hoc
    shapes so a [ratio] of the submitted statements replay verbatim — the
    cacheable fraction — while the rest defeat every cache by
    construction. *)

(** [mixed_templates ~ratio ~variants ()] — [ratio] in [[0, 1]] is the
    probability mass on parameterized templates ([variants] of them);
    [1 -. ratio] goes to the ten uniquified ad-hoc shapes. The endpoints
    degenerate to a purely ad-hoc / purely parameterized list. *)
val mixed_templates : ratio:float -> variants:int -> unit -> Template.t list

(** A smooth day: client think time is divided by a load factor that
    swings sinusoidally between [1.] (trough, at [t = 0]) and
    [peak_load] (peak, at [t = period /. 2.]). *)
type diurnal = {
  period : float;  (** seconds per full cycle *)
  peak_load : float;  (** load multiplier at the peak, [>= 1.] *)
}

(** [think_of ?diurnal ~base] is a think-time curve for
    {!Client.spawn}'s [?think_of]: constant [base] without a curve,
    [base /. load t] with one. *)
val think_of : ?diurnal:diurnal -> base:float -> unit -> float -> float

(** A flash crowd: [clients] extra clients appear at [at], hammer with
    think time [think], and leave at [at +. duration]. *)
type flash = {
  at : float;
  duration : float;
  clients : int;
  think : float;
}

(** [spawn_flash eng ~seed ~label ~templates ~submit ~stats ~ids spec]
    spawns the crowd with {!Client.spawn_fleet}, so each client's
    stream is keyed by [(seed, client name)] and independent of the rest
    of the workload. *)
val spawn_flash :
  Sim.Engine.t ->
  seed:int ->
  label:string ->
  templates:Template.t list ->
  submit:Client.submit ->
  stats:Client.stats ->
  ids:int ref ->
  flash ->
  unit
