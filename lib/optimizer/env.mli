(** Compilation environment: the optimizer's only window onto the outside
    world (memory governor, CPU accounting, pressure signals).

    The search engine meters every memo structure it creates through
    [alloc] — this is what makes compile memory grow with the number of
    alternatives considered, the property the paper's throttling exploits —
    and calls [cpu] for batches of search work. In the simulated server
    these are wired to {!Qcore.Compile_gov} and the CPU scheduler; in unit
    tests {!null} makes the optimizer pure.

    {b Credit.} [alloc n] meters [n] bytes and returns a {e credit}: how
    many more bytes the caller may meter locally, without calling
    [alloc], until its next [cpu] call. The caller reports the bytes it
    metered locally in one [alloc] call before that [cpu] call, before
    any allocation past the credit, and when the search ends. So every
    byte is metered, and the total between two [cpu] calls is unchanged.
    An environment may grant [c] only if metering up to [c] bytes in one
    call, at any point before the caller's next [cpu] call, acts exactly
    as metering them one allocation at a time: nothing blocks, fails,
    reclaims, fires a hook or writes a record, and [should_stop] answers
    the same. That holds when everything these answers read changes only
    while the compiling process is suspended, inside [cpu] or a blocking
    [alloc]. It must return 0 when the next allocation must reach it:
    when it records or counts every call, when a per-call hook may fire,
    or when this call left state that the next call acts on. With a
    credit of 0 every allocation calls [alloc].

    {b Polls.} The answer of [should_stop] may change only inside a [cpu]
    or [alloc] call, never between two of them, and a poll itself changes
    nothing. So a search may poll once per stretch between two such
    calls: a live search polls before every task, a replay once after
    each call, and the two see the same answers. An environment that
    counts or logs polls sees fewer of them from a replay. *)

type abort_reason = Gateway_timeout of string | Out_of_memory

(** Raised by [alloc] (or [cpu]) to abandon the compilation. *)
exception Aborted of abort_reason

type t = {
  alloc : int -> int;
      (** meter [n] more bytes of compile memory; returns the credit *)
  cpu : float -> unit;  (** consume simulated CPU seconds *)
  should_stop : unit -> bool;
      (** broker predicts memory exhaustion: wrap up with the best plan;
          constant between two [alloc] or [cpu] calls *)
}

(** No-op environment (pure optimization); its credit is [max_int]. *)
val null : t

(** Environment that counts allocations/CPU into the given refs (tests).
    Its credit is 0, so it sees one call per allocation. *)
val counting : bytes:int ref -> cpu_seconds:float ref -> t

val pp_abort_reason : Format.formatter -> abort_reason -> unit
