(** Starvation auditor over admission-controlled gates.

    The throttling ladder converts memory pressure into queueing — which
    is the point — but a gate can starve its queue outright if every slot
    is held by long compilations (the paper's Figure 2 pathology taken to
    its limit). The auditor samples each registered gate every 60 s: a
    gate with waiters whose cumulative admission counter has not moved
    for 3 consecutive samples is {e starved}, and the auditor widens it
    by one slot (cumulatively, at most 2 above its base width). With the
    default gateway timeouts (120–600 s) this rescues a starved queue
    before waiters start timing out en masse. Once the queue drains the
    base width is restored. Each change emits an {!Obs.Event.Gate_widen}
    record, so interventions are visible in the trace.

    Widening uses the gate's own [set_slots] (the monitors' semaphore
    drains waiters when capacity rises), and the audit runs from a timer
    callback — waking a blocked process from a callback is safe because
    resumptions are scheduled as engine events. *)

type t

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> t

val add_gate :
  t ->
  name:string ->
  queued:(unit -> int) ->
  admitted:(unit -> int) ->
  slots:(unit -> int) ->
  set_slots:(int -> unit) ->
  unit
(** Register a gate. [admitted] must be cumulative (monotone); the base
    width is captured from [slots ()] at registration. *)

val start : t -> unit
(** Install the periodic audit timer. Call once, before the run. *)

val widen_total : t -> int
(** Widening interventions so far (restores not counted). *)

val widened_now : t -> (string * int) list
(** Gates currently above base width, with their extra slots. *)
