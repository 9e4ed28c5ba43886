(* The Plan-building Cascades search the cost-only {!Optimizer.Cascades}
   replaced, kept verbatim as the oracle of the identity property in
   [test_optimizer.ml]: every physical alternative is built as a
   [Plan.t], each group keeps its best tree, and splits come from the
   list-based graph functions below (the predicate-list forms of
   [Query.connected], [neighborhood] and [connected_subsets]). It shares
   the parameter and result types with the real search so results
   compare with [=], all but [stats.costed]. Test-only. *)

open Optimizer
open Cascades

(* ------------------------------------------------------------------ *)
(* Join-graph connectivity over the predicate list *)

let connected t s =
  if Relset.is_empty s then false
  else begin
    let seed = Relset.singleton (Relset.min_elt s) in
    let rec grow reached =
      let next =
        List.fold_left
          (fun acc p ->
            if Relset.mem p.Query.jleft s && Relset.mem p.jright s then
              if Relset.mem p.jleft acc then Relset.add p.jright acc
              else if Relset.mem p.jright acc then Relset.add p.jleft acc
              else acc
            else acc)
          reached t.Query.preds
      in
      if Relset.equal next reached then reached else grow next
    in
    Relset.equal (grow seed) s
  end

let neighborhood t s ~within =
  List.fold_left
    (fun acc p ->
      let acc =
        if Relset.mem p.Query.jleft s && Relset.mem p.jright within then
          Relset.add p.jright acc
        else acc
      in
      if Relset.mem p.jright s && Relset.mem p.jleft within then
        Relset.add p.jleft acc
      else acc)
    Relset.empty t.Query.preds
  |> fun n -> Relset.diff n s

(* EnumerateCsg: emit every connected subset of the subgraph induced by
   [s], each exactly once. Subsets are seeded at each node v and grown
   only through neighbours, never into nodes smaller than v or already
   prohibited, which is what guarantees uniqueness. *)
let connected_subsets t s =
  let result = ref [] in
  let rec grow c prohibited =
    result := c :: !result;
    let frontier = Relset.diff (neighborhood t c ~within:s) prohibited in
    if not (Relset.is_empty frontier) then begin
      let prohibited' = Relset.union prohibited frontier in
      (* Every nonempty subset of the frontier, including the full one. *)
      let rec each = function
        | None -> ()
        | Some sub ->
            grow (Relset.union c sub) prohibited';
            each (Oracle.Subsets.next_subset frontier sub)
      in
      grow (Relset.union c frontier) prohibited';
      each (Oracle.Subsets.first_subset frontier)
    end
  in
  Relset.iter
    (fun v ->
      let smaller =
        Relset.fold
          (fun u acc -> if u < v then Relset.add u acc else acc)
          s Relset.empty
      in
      grow (Relset.singleton v) (Relset.add v smaller))
    s;
  !result

(* ------------------------------------------------------------------ *)
(* Search *)

(* Metered bytes per memo group. *)
let group_bytes = 72 * 1024

(* Metered bytes per logical split recorded. *)
let lexpr_bytes = 18 * 1024

(* Report CPU to the env every this many tasks. *)
let cpu_batch = 64

(* Dynamic optimization: the task budget is the seed plan's cost times
   this. *)
let tasks_per_cost = 1.2e-2

(* Splits examined per expand task. *)
let expand_chunk = 16

(* ------------------------------------------------------------------ *)
(* Memo *)

type group_state = Fresh | Expanding | Done

type group = {
  mutable gset : Relset.t;
      (* mutable only so arena reuse can recycle the record *)
  mutable state : group_state;
  mutable best : Plan.t option;
  mutable splits : split array;
      (* valid (left, right) partitions, filled when expansion starts *)
  mutable outstanding : int;
      (* unfinished tasks owned by this group: 1 for the expansion itself
         plus one per recorded split *)
  mutable pending : task list;
      (* split tasks of *parent* groups waiting for this group to finish *)
}

(* Child groups are interned into the split record the first time the
   split task runs, so re-runs (after a pending child finishes) and the
   final costing never touch the memo hashtable again. *)
and split = {
  sl : Relset.t;
  sr : Relset.t;
  mutable child_l : group option;
  mutable child_r : group option;
}

(* Tasks carry the group pointer whenever the group is known to exist at
   push time (Expand and Opt_split are only pushed by their own group),
   which keeps the per-task hot path free of hashtable lookups.
   Opt_group keeps the set: creating the group *is* that task's job. *)
and task =
  | Opt_group of Relset.t
  | Expand of group * int (* cursor into the group's split list *)
  | Opt_split of group * split

(* ------------------------------------------------------------------ *)
(* Memo arena: the memo's structural storage (the group hashtable and a
   pool of recyclable group records), reusable across optimize calls.
   [reset_arena] clears logical state but keeps both at their high-water
   capacity — [Hashtbl.clear] preserves the bucket array — so a server
   compiling the same template population over and over stops re-growing
   (and re-collecting) the same structures on every query.

   An arena is single-compile at a time: the search suspends inside
   [env.alloc] (gateway waits), so concurrent simulated compiles must
   each hold their own arena ({!Dbms} keeps a free pool). Reuse is
   observationally transparent: group records carry no state across
   resets, the search never iterates the hashtable, and [Hashtbl]
   find/replace results do not depend on capacity — so plans, costs,
   stats and trace interactions are identical to a fresh memo (the
   QCheck identity property in test_optimizer.ml is the guard). *)

type arena = {
  tbl : (Relset.t, group) Hashtbl.t;
  mutable pool : group array;  (* recyclable records in [0, filled) *)
  mutable filled : int;
  mutable used : int;  (* handed out since the last reset *)
}

let dummy_group =
  {
    gset = Relset.empty;
    state = Done;
    best = None;
    splits = [||];
    outstanding = 0;
    pending = [];
  }

let create_arena () =
  { tbl = Hashtbl.create 1024; pool = Array.make 256 dummy_group; filled = 0; used = 0 }

let reset_arena a =
  Hashtbl.clear a.tbl;
  (* Drop plan/split references so a parked arena does not pin the last
     query's plan trees; slots beyond [used] are already clean. *)
  for i = 0 to a.used - 1 do
    let g = a.pool.(i) in
    g.best <- None;
    g.splits <- [||];
    g.pending <- []
  done;
  a.used <- 0

let acquire_group a set =
  if a.used < a.filled then begin
    let g = a.pool.(a.used) in
    a.used <- a.used + 1;
    g.gset <- set;
    g.state <- Fresh;
    g.outstanding <- 0;
    g
  end
  else begin
    let g =
      {
        gset = set;
        state = Fresh;
        best = None;
        splits = [||];
        outstanding = 0;
        pending = [];
      }
    in
    if a.filled >= Array.length a.pool then begin
      let bigger = Array.make (2 * Array.length a.pool) dummy_group in
      Array.blit a.pool 0 bigger 0 a.filled;
      a.pool <- bigger
    end;
    a.pool.(a.filled) <- g;
    a.filled <- a.filled + 1;
    a.used <- a.used + 1;
    g
  end

type search = {
  params : params;
  env : Env.t;
  model : Cost.model;
  card : Card.t;
  q : Query.t;
  arena : arena;
  groups : (Relset.t, group) Hashtbl.t;  (* == arena.tbl *)
  mutable stack : task list;
  mutable tasks : int;
  mutable n_groups : int;
  mutable n_lexprs : int;
  mutable n_phys : int;
  mutable allocated : int;
  mutable cpu_pending : int;
}

(* One [alloc] call per allocation, whatever credit the env grants. *)
let alloc s bytes =
  s.allocated <- s.allocated + bytes;
  ignore (s.env.Env.alloc bytes)

let push s task = s.stack <- task :: s.stack

let find_or_create s set =
  match Hashtbl.find_opt s.groups set with
  | Some g -> g
  | None ->
      let g = acquire_group s.arena set in
      Hashtbl.replace s.groups set g;
      s.n_groups <- s.n_groups + 1;
      alloc s group_bytes;
      (* Cardinality estimation for a new group is part of its footprint. *)
      ignore (Card.card s.card set);
      g

let update_best g plan =
  match g.best with
  | Some b when Plan.total_cost b <= Plan.total_cost plan -> ()
  | _ -> g.best <- Some plan

let finish_group s g =
  g.state <- Done;
  let pending = g.pending in
  g.pending <- [];
  List.iter (fun t -> push s t) pending

let group_task_done s g =
  g.outstanding <- g.outstanding - 1;
  if g.outstanding = 0 && g.state = Expanding then finish_group s g

(* ------------------------------------------------------------------ *)
(* Task processing *)

let process_opt_group s set =
  let g = find_or_create s set in
  match g.state with
  | Expanding | Done -> ()
  | Fresh ->
      if Relset.cardinal set = 1 then begin
        let i = Relset.min_elt set in
        let alternatives = Oracle.Alternatives.leaf s.model s.card i in
        alloc s (phys_bytes * List.length alternatives);
        s.n_phys <- s.n_phys + List.length alternatives;
        List.iter (update_best g) alternatives;
        g.state <- Done;
        finish_group s g
      end
      else begin
        g.state <- Expanding;
        g.outstanding <- 1;
        (* Enumerate the valid logical splits up front: each unordered
           partition once (the side holding the lowest relation is the
           left), both sides connected. EnumerateCsg makes this linear in
           the number of *valid* alternatives rather than in 2^n. *)
        let m = Relset.min_elt set in
        let rest = Relset.diff set (Relset.singleton m) in
        let splits =
          connected_subsets s.q rest
          |> List.filter_map (fun r ->
                 let l = Relset.diff set r in
                 if connected s.q l then
                   Some { sl = l; sr = r; child_l = None; child_r = None }
                 else None)
        in
        g.splits <- Array.of_list splits;
        s.n_lexprs <- s.n_lexprs + Array.length g.splits;
        alloc s (lexpr_bytes * Array.length g.splits);
        push s (Expand (g, 0))
      end

let process_expand s g cursor =
  let stop = min (Array.length g.splits) (cursor + expand_chunk) in
  for i = cursor to stop - 1 do
    let sp = g.splits.(i) in
    g.outstanding <- g.outstanding + 1;
    (* LIFO: children optimize before the split is costed. *)
    push s (Opt_split (g, sp));
    push s (Opt_group sp.sr);
    push s (Opt_group sp.sl)
  done;
  if stop < Array.length g.splits then push s (Expand (g, stop))
  else
    (* Expansion finished: drop its outstanding unit. *)
    group_task_done s g

(* By the time a split task runs, both child groups exist: the Expand
   that pushed the split pushed their Opt_group tasks on top of it, so
   [find_or_create] here is a pure lookup (it never allocates), and the
   pointer is cached in the split for any later re-run. *)
let split_child s sp side =
  match (side, sp.child_l, sp.child_r) with
  | `L, Some g, _ | `R, _, Some g -> g
  | `L, None, _ ->
      let g = find_or_create s sp.sl in
      sp.child_l <- Some g;
      g
  | `R, _, None ->
      let g = find_or_create s sp.sr in
      sp.child_r <- Some g;
      g

let process_opt_split s g sp =
  let gl = split_child s sp `L and gr = split_child s sp `R in
  if gl.state <> Done then gl.pending <- Opt_split (g, sp) :: gl.pending
  else if gr.state <> Done then gr.pending <- Opt_split (g, sp) :: gr.pending
  else begin
    match (gl.best, gr.best) with
    | Some pl, Some pr ->
        let alternatives = Oracle.Alternatives.join s.model s.card pl pr in
        alloc s (phys_bytes * List.length alternatives);
        s.n_phys <- s.n_phys + List.length alternatives;
        List.iter (update_best g) alternatives;
        group_task_done s g
    | _ ->
        (* A Done child always has a best plan (connected subsets always
           have at least the left-deep plan through their members). *)
        assert false
  end

(* ------------------------------------------------------------------ *)

let flush_cpu s =
  if s.cpu_pending > 0 then begin
    s.env.Env.cpu (float_of_int s.cpu_pending *. s.params.task_cpu);
    s.cpu_pending <- 0
  end

let optimize ?(params = default_params) ?arena ~env model cat q =
  let card = Card.create cat q in
  let full = Relset.full (Query.n_rels q) in
  (* Reset on entry rather than trusting the caller: an aborted previous
     search leaves an arena mid-state, and the reset makes reuse safe
     regardless of how the last call ended. *)
  let arena =
    match arena with
    | Some a ->
        reset_arena a;
        a
    | None -> create_arena ()
  in
  let s =
    {
      params;
      env;
      model;
      card;
      q;
      arena;
      groups = arena.tbl;
      stack = [];
      tasks = 0;
      n_groups = 0;
      n_lexprs = 0;
      n_phys = 0;
      allocated = 0;
      cpu_pending = 0;
    }
  in
  try
    (* Seed: greedy left-deep plan guarantees a complete plan exists from
       the start (pre-aggregation form lives in the memo root). *)
    let root = find_or_create s full in
    let seed = Greedy.plan model card in
    let seed_join_cost =
      (* Budget scales with estimated query cost (dynamic optimization). *)
      Plan.total_cost seed
    in
    let budget =
      min params.max_tasks
        (max params.min_tasks
           (int_of_float (seed_join_cost *. tasks_per_cost)))
    in
    (* Keep the un-aggregated seed in the memo for joining purposes. *)
    let seed_join =
      match seed.Plan.node with
      | Plan.Hash_agg (c, _, _) -> c
      | Plan.Stream_agg (c, _, _) ->
          (* Strip the sort the stream aggregate inserted. *)
          (match c.Plan.node with Plan.Sort inner -> inner | _ -> c)
      | _ -> seed
    in
    update_best root seed_join;
    alloc s (phys_bytes * Plan.n_operators seed_join);
    push s (Opt_group full);
    let stopped = ref None in
    let rec loop () =
      match s.stack with
      | [] -> ()
      | task :: rest ->
          if s.tasks >= budget then stopped := Some Budget_exhausted
          else if params.honor_stop_early && s.env.Env.should_stop () then
            stopped := Some Stopped_early
          else begin
            s.stack <- rest;
            s.tasks <- s.tasks + 1;
            s.cpu_pending <- s.cpu_pending + 1;
            if s.cpu_pending >= cpu_batch then flush_cpu s;
            (match task with
            | Opt_group set -> process_opt_group s set
            | Expand (g, cursor) -> process_expand s g cursor
            | Opt_split (g, sp) -> process_opt_split s g sp);
            loop ()
          end
    in
    (try loop () with
    | Env.Aborted Env.Out_of_memory when params.honor_stop_early ->
        (* The paper's second extension: when memory runs out mid-search,
           return the best plan from the set of already explored plans
           instead of an out-of-memory error. (The memo always holds a
           complete plan thanks to the greedy seed.) *)
        stopped := Some Stopped_early
    | Env.Aborted _ as e -> raise e);
    flush_cpu s;
    let outcome =
      match !stopped with
      | Some o -> o
      | None -> Complete
    in
    let plan =
      match root.best with
      | Some p -> Rules.finalize model card p
      | None -> seed
    in
    Ok
      {
        plan;
        cost = Plan.total_cost plan;
        outcome;
        stats =
          {
            tasks = s.tasks;
            groups = s.n_groups;
            lexprs = s.n_lexprs;
            phys = s.n_phys;
            allocated_bytes = s.allocated;
            budget;
            (* This search prices as it goes, so it has no count of what
               pricing at the end would cost; comparisons skip it. *)
            costed = 0;
          };
      }
  with Env.Aborted reason ->
    (* Hard failure (gateway timeout, or OOM with the best-plan extension
       disabled): surfaces as an error and the client retries. *)
    Error reason
