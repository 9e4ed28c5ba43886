(** Per-query resilience policy: how {!Dbms.submit} behaves when the
    machine is hostile. [Config.resilience] switches all of it on or off
    at once; off (the default) is the seed pipeline, bit for bit.

    With it on, two mechanisms work together:

    - {b retry}: transient resource errors (gateway timeout, grant
      timeout) are retried inside the server, up to {!max_retries} times,
      with capped exponential backoff and deterministic jitter drawn from
      the simulation RNG;
    - {b degradation ladder}: under broker pressure — or after a compile
      out-of-memory — the optimizer falls back from full Cascades search
      to the greedy left-deep plan, which needs almost no compile memory,
      and an execution refused its ideal workspace reruns at the grant
      floor and spills (the paper's §4.3 best-plan-so-far idea taken one
      rung further).

    A query's waits stay bounded without a deadline of its own: every
    compile gateway and the grant queue time out, and the retries are
    capped at {!max_retries}. *)

(** A backoff curve: the first pause and its jitter. *)
type backoff = {
  base_s : float;  (** first backoff; doubles per retry *)
  jitter_frac : float;  (** uniform jitter as a fraction of the backoff *)
}

(** Server-side retries per query, on top of attempt 1 (5). *)
val max_retries : int

(** Cap on any backoff pause, in seconds (240). *)
val backoff_max_s : float

(** The server's retry curve: 15 s, 50% jitter. *)
val server_backoff : backoff

(** [backoff b ~attempt ~rng] is the sleep before retry [attempt]
    (1-based): [min backoff_max_s (b.base_s * 2^(attempt-1))] plus
    uniform jitter in [0, b.jitter_frac * that). Deterministic given the
    RNG state. Defensive at the edges: [attempt <= 0] is clamped to 1,
    and a negative [jitter_frac] or [base_s] can never yield a negative
    sleep. *)
val backoff : backoff -> attempt:int -> rng:Sim.Rng.t -> float

(** Per-client retry token bucket.

    Unconditional retry counts are what turn a transient into a
    metastable failure: every failed query retries [max_retries] times,
    so offered load {e multiplies} exactly when capacity collapses. A
    budget ties the right to retry to goodput instead — each success
    earns [earn_per_success] tokens (capped at [max_tokens]), each retry
    spends [spend_per_retry] — so sustained retry traffic is bounded at
    [earn_per_success / spend_per_retry] of the success rate. During an
    outage the bucket drains, further retries fail fast with
    {!Health.Error.Retry_budget_exhausted}, and the storm is starved of
    its amplifier. Conservation invariant (tested by QCheck):
    [min initial max_tokens + earned - capped - spent = balance]. *)
module Budget : sig
  type config = {
    initial : float;
    earn_per_success : float;
    max_tokens : float;
    spend_per_retry : float;
  }

  (** 10 initial tokens, earn 0.1/success, cap 10, spend 1/retry. *)
  val default_config : config

  type t

  (** Raises [Invalid_argument] on negative rates or a non-positive
      spend. *)
  val create : config -> t

  (** Spend one retry's worth of tokens; [false] (and a denial counted)
      when the balance cannot cover it. *)
  val try_spend : t -> bool

  (** Credit one success's earnings, capped at [max_tokens]. *)
  val earn : t -> unit

  val balance : t -> float
  val earned : t -> float

  (** Earnings discarded at the [max_tokens] cap. *)
  val capped : t -> float

  val spent : t -> float

  (** Retries refused for lack of tokens. *)
  val denied : t -> int

  val config : t -> config
end

(** [pp ppf on] describes the policy, as [dbsim info] prints it. *)
val pp : Format.formatter -> bool -> unit
