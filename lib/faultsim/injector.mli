(** Fault injector: executes a {!Fault.spec} schedule as sim processes.

    The injector never reaches into server internals directly; the server
    exposes the mutation points it is willing to have attacked through a
    {!hooks} record (grab ballast memory, degrade the disk, install an
    allocation-failure predicate, spawn burst clients). This keeps the
    library dependency-free and lets tests drive the injector against toy
    harnesses.

    Determinism: all randomness (glitch coin flips) comes from per-spec
    streams split off the [rng] passed to {!install}, in spec-list order,
    so one seed plus one spec list replays an identical fault timeline.

    Overlapping faults compose: concurrent disk storms apply the worst
    active degradation, concurrent glitches fail an allocation if any
    active predicate fires, and each ballast releases exactly the bytes it
    managed to grab. *)

type hooks = {
  ballast_grab : int -> bool;
      (** commit [n] more bytes of ballast; [false] = refused (machine
          full) *)
  ballast_release : int -> unit;  (** release [n] bytes of ballast *)
  disk_set : throughput_factor:float -> extra_seek_s:float -> unit;
  disk_clear : unit -> unit;
  alloc_fault_set : (string -> int -> bool) -> unit;
      (** install the failure predicate ([clerk_name -> bytes -> fail?]) *)
  alloc_fault_clear : unit -> unit;
  burst_clients : clients:int -> think_mean:float -> until:float -> unit;
  shard_crash : shard:int -> restart_delay:float -> unit;
      (** kill the indexed shard now; it restarts (cold cache) after the
          delay — the shard layer owns the restart schedule *)
  shard_stall : shard:int -> duration:float -> slow_factor:float -> unit;
      (** brown out the indexed shard for [duration] seconds at
          [slow_factor] of its normal service rate *)
}

(** Hooks that ignore every fault (tests, partial wiring). *)
val null_hooks : hooks

type t

(** [install eng ~rng ~hooks specs] validates every spec and schedules its
    process. Faults start firing once the engine runs. *)
val install : Sim.Engine.t -> rng:Sim.Rng.t -> hooks:hooks -> Fault.spec list -> t

(** Number of fault episodes that have started / fully finished. *)
val started : t -> int

val finished : t -> int

(** Ballast grabs refused by the server (machine already full). *)
val ballast_refused : t -> int

(** Highest ballast ever held at once (how much of the configured spike
    the phantom consumer actually got). *)
val ballast_peak : t -> int
