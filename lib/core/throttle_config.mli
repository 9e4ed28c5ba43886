(** Configuration of the gateway ladder (Figure 1).

    A ladder is an ordered list of levels with progressively {e higher}
    memory thresholds and progressively {e lower} concurrency limits.
    Compilations below the first threshold proceed unthrottled (small
    diagnostic queries keep working even on an overloaded system).

    The paper's production configuration, reproduced by {!default}:
    - small gateway: 4 concurrent compilations per CPU;
    - medium gateway: 1 per CPU;
    - big gateway: 1 in total;
    with acquisition timeouts increasing down the ladder.

    Thresholds for the larger gateways may be {e dynamic} (the paper's first
    extension): level [i]'s entry threshold is recomputed from the broker's
    compile-memory target as [target * F / S], where [F] is the fraction of
    the target allotted to the population at level [i - 1] and [S] is the
    current size of that population. *)

type slots = Per_cpu of int | Total of int

type level = {
  lname : string;
  base_threshold : int;
      (** static entry threshold, bytes; also the fallback when dynamic
          thresholds are off or no broker target is known *)
  slots : slots;
  timeout : float;  (** acquisition timeout, seconds *)
  fraction : float;
      (** [F]: fraction of the compile target allotted collectively to
          compilations sitting {e below} this level; used only when
          [dynamic] *)
  min_threshold : int;  (** clamp for the dynamic threshold *)
  max_threshold : int;
}

type t = {
  levels : level list;  (** ordered, smallest threshold first *)
  dynamic : bool;
}

(** Paper ladder: small (4/CPU), medium (1/CPU), big (1 total); thresholds
    and timeouts calibrated for the simulated 4 GB server. *)
val default : unit -> t

(** Same ladder with dynamic thresholds disabled (ablation A1). *)
val static_only : unit -> t

(** Degenerate ladder for ablation A3. *)
val single_gate : unit -> t

(** [slot_count slots ~cpus] resolves a slot spec to a concrete limit. *)
val slot_count : slots -> cpus:int -> int

(** [validate t] checks that thresholds strictly increase and slot counts
    do not increase down the ladder; raises [Invalid_argument] otherwise. *)
val validate : t -> cpus:int -> unit

(** [dynamic_threshold level ~target ~population] is the paper's
    [target * F / S] with clamping; [population] is [S], the number of
    compilations currently in the category below [level]. *)
val dynamic_threshold : level -> target:int -> population:int -> int

val pp : Format.formatter -> t -> unit
