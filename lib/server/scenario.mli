(** The canonical chaos run, shared by [dbsim chaos], [dbsim health],
    examples/chaos_pressure.ml and the chaos and health tests, so the
    CLI, the example and the test suite exercise the same run. It is a
    value, not a runner: {!Experiment.run} runs it, with the schedule
    {!faults} installed in its config.

    Everything is deterministic in the seed: the same parameters and seed
    replay the same run, byte for byte. *)

type t = {
  clients : int;  (** SALES clients *)
  warmup : float;  (** seconds excluded from the results *)
  measure : float;  (** measured window, seconds; clients stop at its end *)
  drain : float;
      (** seconds the engine runs on after the window with no new
          submissions, so a query still in flight after it is stuck *)
  think : float;  (** client mean think time, seconds *)
  slice : float;  (** throughput slice width, seconds *)
  ballast_gib : float;  (** external ballast appetite, GiB; [0.] drops it *)
  at : float;  (** start of every fault's window, seconds *)
  ramp_steps : int;  (** ballast ramp increments *)
  step_s : float;  (** seconds between ballast increments *)
  hold : float;  (** seconds the ballast holds after its ramp *)
  disk_storm : bool;  (** degrade the disk over the window *)
  burst : int;  (** extra clients over the window; [0] for none *)
  glitch : float;
      (** compile-clerk allocation-failure probability over the window;
          [0.] drops it *)
}

(** The paper's §3 external-pressure transient: a 12 GiB ballast ramping
    in 240 steps of 2.5 s from t = 100 s with no hold, against 35 clients
    (100 s think) over a 60 s warm-up, a 1000 s window (60 s slices) and
    a 900 s drain, with a 0.15 allocation glitch so the retry ladder and
    the error taxonomy see real 701s. No disk storm and no burst. The
    ballast's appetite exceeds physical memory on purpose: the slow ramp
    keeps absorbing what the server's components release. *)
val default : t

(** The schedule of [t], in this order: the ballast, then, over its
    window of ramp plus hold, a disk storm when [disk_storm], [burst]
    clients when positive, and the allocation glitch. *)
val faults : t -> Faultsim.Fault.spec list
