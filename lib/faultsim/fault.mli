(** Declarative fault specifications.

    A fault spec describes one hostile episode on the simulated server's
    timeline — the induced pressure transients that adaptive memory systems
    are evaluated under. Specs are pure data: they are validated here and
    executed by {!Injector}, which turns each one into a deterministic sim
    process. Composing several specs in a list builds a full chaos
    schedule; equal specs plus an equal engine seed always replay the same
    run. *)

type spec =
  | Memory_ballast of {
      at : float;  (** start time, seconds *)
      bytes : int;  (** total committed memory to grab *)
      hold : float;  (** seconds held after the ramp completes *)
      ramp_steps : int;  (** number of grab increments *)
      step_s : float;  (** seconds between increments *)
    }
      (** A phantom memory consumer: ramps up committed memory through a
          dedicated clerk, holds it, then releases. Because the ballast
          clerk is registered with the Memory Broker (but ignores its
          verdicts), the broker sees the spike and squeezes everyone else —
          the external-pressure scenario of the paper's §3. *)
  | Disk_storm of {
      at : float;
      duration : float;
      throughput_factor : float;  (** multiplies array bandwidth, in (0,1] *)
      extra_seek_s : float;  (** added per-transfer latency, >= 0 *)
    }
      (** Degraded I/O: every transfer pays extra seek latency and the
          array bandwidth drops (a rebuilding RAID, a failing spindle). *)
  | Client_burst of {
      at : float;
      duration : float;
      clients : int;
      think_mean : float;  (** think time of the burst clients, seconds *)
    }  (** A storm of extra clients hammering the server for a while. *)
  | Alloc_glitch of {
      at : float;
      duration : float;
      fail_prob : float;  (** probability each allocation fails, in [0,1] *)
      clerks : string list;  (** affected clerk names; [[]] = all clerks *)
    }
      (** Transient allocation failures: while active, clerk allocations
          fail spuriously with the given probability (flaky commit path,
          external process stealing pages faster than accounting sees). *)
  | Shard_crash of {
      at : float;
      shard : int;  (** shard index in the router's shard list *)
      restart_delay : float;  (** seconds down before the restart begins *)
    }
      (** Hard failure of one shard in a sharded deployment: in-flight
          connections are lost, placements refuse new work, and after
          [restart_delay] the shard rejoins with an {e empty} plan cache —
          the cold-cache recompilation storm the compile gateways must
          absorb. Only meaningful when a router installs the shard hooks;
          the single-engine server ignores it. *)
  | Shard_stall of {
      at : float;
      shard : int;
      duration : float;
      slow_factor : float;  (** multiplies the shard's service rate, (0,1] *)
    }
      (** Brownout: the shard stays up but serves at [slow_factor] of its
          normal rate (GC storm, noisy neighbour, packet loss). Routers
          treat a browned-out shard as hedgeable rather than dead. *)

(** [validate s] raises [Invalid_argument] on nonsensical parameters
    (negative times, zero ballast, probabilities outside [0,1], ...). *)
val validate : spec -> unit

(** Short human label, e.g. ["ballast(2.0GiB@100s)"]. *)
val label : spec -> string

(** [(start, stop)] of the spec's active window. For a ballast the window
    ends when the memory is released. *)
val window : spec -> float * float

val pp : Format.formatter -> spec -> unit
