(** Cascades-style top-down plan search over a memo of relation-set groups.

    The search runs as an explicit task stack (optimize-group /
    expand-group / optimize-split tasks), which gives the three properties
    the paper's throttling mechanism relies on:

    - {b metered memory}: every group, logical split and physical
      alternative charges bytes through {!Env.t}, so compile memory grows
      with the number of alternatives considered and is freed only when
      compilation ends. Bytes within the env's credit are summed locally
      and reported in one call before the next [cpu] call, before an
      allocation past the credit, and when the search ends;
    - {b interruptibility}: the environment's [alloc] may block the calling
      simulation process at a gateway for arbitrarily long, or abort the
      compilation by raising {!Env.Aborted};
    - {b best-plan-so-far}: the memo is seeded with a greedy left-deep plan
      before search starts, so at any moment a complete (if suboptimal)
      plan exists; when the broker predicts memory exhaustion
      ([should_stop]) the search returns it instead of failing.

    Search effort follows the paper's "dynamic optimization": the task
    budget scales with the estimated cost of the seed plan, so expensive
    queries get (and allocate) more. A completed search explores every
    connected split of every connected subset — the same space as an
    exhaustive System-R DP, the tests' oracle — hence equal optimal cost.

    The memo keeps costs, not plans, and the search reads no cost: a
    split whose children have finished is metered and logged, not
    costed. Splits are listed from the query's adjacency masks
    ({!Query.iter_connected_subsets}). When the search ends, the plan
    is the greedy seed unless the root was offered something (one of
    its splits was logged, or it is a one-relation leaf). Only then is
    the memo priced: each group gets a row of flat columns (rows, its
    best plan's cost_io and cost_cpu, and three per-group terms from
    {!Rules.set_entry_terms}: its spill io as a hash build side, and the
    spill io and cpu of a Sort over it), finished leaves are costed by
    {!Rules.cheapest_leaf_into}, and the logged splits by
    {!Rules.cheapest_join_into} in the order the search logged them, so
    each group's winner and cost bits are those of a search that costs
    as it goes. The one [Plan.t] is then built from the root. The
    metered bytes are those of the memo being modelled, not of these
    columns.

    Because no cost steers it, a search takes a course fixed by the
    join graph, the per-relation index-path bits and the params; its
    budget and the env only decide where it stops, and costs only decide
    its plan. Given a {!replay_memo}, {!optimize} records that course
    silently, once per key and server, extending the recording only when
    an instance runs past its end, and replays it for every instance:
    the same env calls, the same aborts, the same stats and the same
    plan as the live search, at about a tenth of a live task's cost. *)

(** Metered bytes per physical alternative costed (18 KiB). A memo group
    costs 72 KiB and a recorded logical split 18 KiB. *)
val phys_bytes : int

(** The search's task budget is the seed plan's cost times 0.012, clamped
    to [\[min_tasks, max_tasks\]]. It reports CPU to the env every 64
    tasks, and an expand task examines 16 splits. *)
type params = {
  task_cpu : float;  (** simulated CPU seconds per task *)
  max_tasks : int;  (** hard ceiling on search effort *)
  min_tasks : int;  (** floor, so trivial queries still finish *)
  honor_stop_early : bool;
      (** obey [should_stop] (the paper's best-plan extension); when
          [false] the search ignores pressure and risks hard OOM *)
}

val default_params : params

type outcome =
  | Complete  (** full plan space explored: plan is optimal *)
  | Budget_exhausted  (** dynamic-optimization budget hit: best so far *)
  | Stopped_early  (** broker predicted OOM: best so far (paper §4.1) *)

type stats = {
  tasks : int;
  groups : int;
  lexprs : int;
  phys : int;
  allocated_bytes : int;  (** total compile memory metered *)
  budget : int;  (** task budget chosen by dynamic optimization *)
  costed : int;
      (** alternatives priced when the plan was built: 0 when the greedy
          seed stood unopposed, else those of every finished leaf and 5
          per logged split *)
}

type result = { plan : Plan.t; cost : float; outcome : outcome; stats : stats }

(** {1 Memo arena}

    Reusable storage for the search: the group columns and index, the
    split buffer, the parked-split nodes, the task stack and the split
    log, plus the cost columns once a plan has been priced. Passing the
    same arena to successive {!optimize} calls keeps them at high-water
    capacity instead of re-growing them per query. That capacity follows
    the number of groups, live tasks and logged splits, never 2^n
    subsets. Reuse is
    observationally transparent: results, stats and environment
    interactions are identical to a fresh memo. {!optimize} clears an
    arena's logical state on entry, and an arena holds no plans, so a
    parked arena needs no reset.

    An arena serves one compilation at a time, and all of the search's
    scratch space lives in it. Searches can suspend inside [env.alloc]
    (gateway waits), and experiment grids run on parallel domains, so
    concurrent compiles need distinct arenas; a {!replay_memo} keeps a
    free pool of them for its live searches. *)

type arena

val create_arena : unit -> arena

(** {1 Replay memo}

    Recorded searches, keyed by everything a search reads: the query's
    adjacency masks (their count is the relation count), the bit
    {!Rules.has_index_path} of each relation, and the params. The first
    compile of a key runs the search silently on the memo's own arena,
    with no env calls (so it never suspends), to 16384 tasks or its
    budget if that is smaller, and stores its per-task allocation
    stream: the run length of each stretch of tasks that allocate
    nothing, and the kind of each allocation. Every compile of the key
    then replays that stream through its own env, task by task: the
    budget check, the [should_stop] poll, the CPU batching and each
    allocation with its credit, so a replay is observationally a live
    search. A replay that reaches the end of the stream before its
    budget extends it, recording silently to twice the length (or the
    budget), and reads on.

    A recording notes the first task after which the root had been
    offered something (always, for a one-relation query). An instance
    whose budget reaches that task searches live, as its plan depends on
    costs. So does a replay whose extension finds that task within its
    budget: it reruns the search silently to the task it has reached,
    then continues it live through its own env, so its env calls and
    plan are the live search's too.

    A memo holds no plan and no cost, and a replay reads a recording that
    no later recording changes, so compiles that suspend mid-replay can
    share one memo. It is not safe across domains: {!Dbms} keeps one per
    server. *)

type replay_memo

val create_replay_memo : unit -> replay_memo

(** [optimize ?params ?arena ?replay ~env model catalog query]. Errors
    are the governor's abort reasons surfaced by [env.alloc]/[env.cpu].
    With [?replay] a search whose key is recorded replays instead and
    uses no arena; without it every search runs live. A live search runs
    on [?arena], else on a free arena of [?replay]'s pool, else on a
    fresh single-use one. *)
val optimize :
  ?params:params ->
  ?arena:arena ->
  ?replay:replay_memo ->
  env:Env.t ->
  Cost.model ->
  Catalog.t ->
  Query.t ->
  (result, Env.abort_reason) Stdlib.result
