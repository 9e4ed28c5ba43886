(* Metered bytes per memo group. *)
let group_bytes = 72 * 1024

(* Metered bytes per logical split recorded. *)
let lexpr_bytes = 18 * 1024

let phys_bytes = 18 * 1024

(* Report CPU to the env every this many tasks. *)
let cpu_batch = 64

(* Dynamic optimization: the task budget is the seed plan's cost times
   this. *)
let tasks_per_cost = 1.2e-2

(* Splits examined per expand task. *)
let expand_chunk = 16

type params = {
  task_cpu : float;
  max_tasks : int;
  min_tasks : int;
  honor_stop_early : bool;
}

let default_params =
  { task_cpu = 2.0e-3; max_tasks = 45_000; min_tasks = 500; honor_stop_early = true }

type outcome = Complete | Budget_exhausted | Stopped_early

type stats = {
  tasks : int;
  groups : int;
  lexprs : int;
  phys : int;
  allocated_bytes : int;
  budget : int;
  costed : int;
}

type result = { plan : Plan.t; cost : float; outcome : outcome; stats : stats }

(* ------------------------------------------------------------------ *)
(* Memo arena

   The memo keeps costs, never plans, and the search itself reads no
   cost. A group is an ordinal into flat columns: its relation set, its
   unfinished-task count (which is also its search state), the head of
   its parked-split list and its winner (tag and left child group in one
   int). Tasks are int pairs on an int stack; a split task carries its
   left side and its group, so no split outlives the expansion that
   lists it. A split whose children have finished is metered and then
   logged as one int, (group, left child group), instead of costed.

   Pricing waits until the plan is built, and happens only if the root
   was offered something: one of its splits is logged, or it is a
   one-relation leaf. Otherwise the plan is the greedy seed. Pricing
   fills a row of a [Rules.tables] per group (rows, the best plan's
   cost_io and cost_cpu, and the group's hash-build spill, sort spill
   and sort cpu terms), sets the seed as the root's incumbent, costs
   every finished leaf, then costs and offers the logged splits in log
   order. A split is logged only once its children have finished, so
   after every split of theirs, and leaves are costed before any split:
   each group sees the same offers in the same order as in a search
   that costs as it goes, so its winner and cost bits are the same. A
   [Plan.t] is built once, from the root, after pricing.

   Only one group's split list is ever live. An expansion lists the
   splits into [splits], and its expand tasks run back to back: each
   pushes its continuation above the tasks it creates, so the next
   expansion starts only after the last chunk is pushed.

   Every column, the group index and the split buffer belong to the
   arena, never to a global: the search suspends inside [env.alloc]
   (gateway waits), and experiment grids run cells on parallel domains,
   so each in-flight compile needs storage of its own ({!Dbms} keeps a
   free pool). [reset_arena] clears logical state but keeps every column
   at its high-water capacity, which is sized by groups, live tasks and
   logged splits, not by 2^n subsets, so a pool of parked arenas stays
   small. Reuse is observationally transparent: neither the search nor
   the pricing reads a slot it has not written since the reset. *)

(* A group's [g_outstanding] is also its state: [fresh] before its
   optimize task runs, [finished] once every task it owns is done, and
   n >= 1 while it expands. *)
let fresh = -1
let finished = 0

(* A group's winner in one int: the left child group of the winning
   split (0 for a leaf) and the winning tag, as
   [(child lsl 3) lor (tag + 2)]. The tag is a [Rules] leaf tag (0-1) or
   join tag (0-4); [no_plan] marks a group with no plan yet and
   [seed_win] the root while the greedy seed is its best. A group id,
   unlike a relation set, leaves the low bits free at any query size. *)
let pack_win child tag = (child lsl 3) lor (tag + 2)
let win_child w = w lsr 3
let win_tag w = (w land 7) - 2
let no_plan = pack_win 0 (-1)
let seed_win = pack_win 0 (-2)

(* A task is a pair (x, y). Optimize-group: (set, -1). Expand: (group,
   cursor into [splits]), cursor >= 0. Optimize-split: (left side,
   -2 - group). *)
let opt_group = -1
let split_task g = -2 - g
let split_owner y = -2 - y

type arena = {
  mutable g_set : int array;
  mutable g_outstanding : int array;
      (* [fresh], [finished], or while expanding the unfinished tasks
         owned by the group: 1 for the expansion itself plus one per
         recorded split *)
  mutable g_parked : int array;
      (* first parked split of a *parent* group waiting for this group
         to finish, or -1 *)
  mutable g_win : int array;  (* [pack_win child tag] *)
  mutable tb : Rules.tables;  (* empty until a plan is priced *)
  mutable n_groups : int;
  mutable index : int array;
      (* relation set -> group: open addressing with linear probing, -1
         empty, at most half full *)
  mutable splits : int array;  (* left sides of the expanding group's splits *)
  mutable n_splits : int;
  (* Parked splits: (left side, group) nodes linked from [g_parked],
     recycled through a free list. *)
  mutable pk_l : int array;
  mutable pk_group : int array;
  mutable pk_next : int array;
  mutable pk_used : int;
  mutable pk_free : int;
  mutable stack : int array;  (* task i is (stack.(2i), stack.(2i+1)) *)
  mutable top : int;
  mutable log : int array;  (* splits to price, [log_entry group left] *)
  mutable n_log : int;
  best : float array;  (* evaluator scratch: cost_io, cost_cpu, total *)
}

let create_arena () =
  let groups = 256 in
  {
    g_set = Array.make groups 0;
    g_outstanding = Array.make groups fresh;
    g_parked = Array.make groups (-1);
    g_win = Array.make groups no_plan;
    tb = Rules.make_tables 0;
    n_groups = 0;
    index = Array.make (2 * groups) (-1);
    splits = Array.make 64 0;
    n_splits = 0;
    pk_l = Array.make 256 0;
    pk_group = Array.make 256 0;
    pk_next = Array.make 256 (-1);
    pk_used = 0;
    pk_free = -1;
    stack = Array.make 1024 0;
    top = 0;
    log = Array.make 256 0;
    n_log = 0;
    best = Array.make 3 0.0;
  }

let reset_arena a =
  if a.n_groups > 0 then Array.fill a.index 0 (Array.length a.index) (-1);
  a.n_groups <- 0;
  a.n_splits <- 0;
  a.pk_used <- 0;
  a.pk_free <- -1;
  a.top <- 0;
  a.n_log <- 0

let grow_ints xs fill =
  let ys = Array.make (2 * Array.length xs) fill in
  Array.blit xs 0 ys 0 (Array.length xs);
  ys

(* Multiplicative hashing: the product's middle bits index the table. *)
let hash_set set = (set * 0x2545F4914F6CDD1D) lsr 29

let rec probe a set slot =
  let g = a.index.(slot) in
  if g < 0 || a.g_set.(g) = set then slot
  else probe a set ((slot + 1) land (Array.length a.index - 1))

let slot_of a set = probe a set (hash_set set land (Array.length a.index - 1))

let grow_groups a =
  a.g_set <- grow_ints a.g_set 0;
  a.g_outstanding <- grow_ints a.g_outstanding fresh;
  a.g_parked <- grow_ints a.g_parked (-1);
  a.g_win <- grow_ints a.g_win no_plan;
  a.index <- Array.make (2 * Array.length a.index) (-1);
  for g = 0 to a.n_groups - 1 do
    a.index.(slot_of a a.g_set.(g)) <- g
  done

(* A logged split: its group and its left child group, each below 2^31. *)
let log_entry g gl = (g lsl 31) lor gl
let entry_group e = e lsr 31
let entry_left e = e land ((1 lsl 31) - 1)

let log_split a g gl =
  if a.n_log = Array.length a.log then a.log <- grow_ints a.log 0;
  a.log.(a.n_log) <- log_entry g gl;
  a.n_log <- a.n_log + 1

let add_split a l =
  if a.n_splits = Array.length a.splits then a.splits <- grow_ints a.splits 0;
  a.splits.(a.n_splits) <- l;
  a.n_splits <- a.n_splits + 1

(* Park the split (l, g) on group [child]'s list. *)
let park a child l g =
  let node =
    if a.pk_free >= 0 then begin
      let node = a.pk_free in
      a.pk_free <- a.pk_next.(node);
      node
    end
    else begin
      if a.pk_used = Array.length a.pk_l then begin
        a.pk_l <- grow_ints a.pk_l 0;
        a.pk_group <- grow_ints a.pk_group 0;
        a.pk_next <- grow_ints a.pk_next (-1)
      end;
      a.pk_used <- a.pk_used + 1;
      a.pk_used - 1
    end
  in
  a.pk_l.(node) <- l;
  a.pk_group.(node) <- g;
  a.pk_next.(node) <- a.g_parked.(child);
  a.g_parked.(child) <- node

type search = {
  params : params;
  env : Env.t;
  model : Cost.model;
  card : Card.t;
  q : Query.t;
  arena : arena;
  emit_split : Relset.t -> unit;  (* [add_split arena], built once *)
  mutable tasks : int;
  mutable n_lexprs : int;
  mutable n_phys : int;
  mutable allocated : int;
  mutable cpu_pending : int;
  mutable credit : int;  (* bytes the env lets us meter locally *)
  mutable owed : int;  (* bytes metered locally, not yet reported *)
}

(* Report the bytes metered locally. Their sum fits in the credit the
   env granted, so this call crosses no gate and reclaims nothing. *)
let settle s =
  if s.owed > 0 then begin
    let owed = s.owed in
    s.owed <- 0;
    ignore (s.env.Env.alloc owed)
  end

(* Within the credit an allocation is an add; past it, the bytes owed
   are settled first and the new ones metered as one call, whose credit
   replaces what was left (see {!Env.t}). *)
let alloc s bytes =
  s.allocated <- s.allocated + bytes;
  if s.credit > 0 && bytes <= s.credit then begin
    s.credit <- s.credit - bytes;
    s.owed <- s.owed + bytes
  end
  else begin
    settle s;
    s.credit <- s.env.Env.alloc bytes
  end

let push s x y =
  let a = s.arena in
  if 2 * a.top = Array.length a.stack then a.stack <- grow_ints a.stack 0;
  a.stack.(2 * a.top) <- x;
  a.stack.((2 * a.top) + 1) <- y;
  a.top <- a.top + 1

let find_or_create s set =
  let a = s.arena in
  let slot = slot_of a set in
  let g = a.index.(slot) in
  if g >= 0 then g
  else begin
    let g = a.n_groups in
    let slot =
      if 2 * (g + 1) > Array.length a.index then begin
        grow_groups a;
        slot_of a set
      end
      else slot
    in
    a.index.(slot) <- g;
    a.n_groups <- g + 1;
    a.g_set.(g) <- set;
    a.g_outstanding.(g) <- fresh;
    a.g_parked.(g) <- -1;
    a.g_win.(g) <- no_plan;
    alloc s group_bytes;
    g
  end

(* Re-push the parked splits, most recently parked first, so the first
   parked runs first, and recycle their nodes. *)
let finish_group s g =
  let a = s.arena in
  a.g_outstanding.(g) <- finished;
  let node = ref a.g_parked.(g) in
  a.g_parked.(g) <- -1;
  while !node >= 0 do
    let next = a.pk_next.(!node) in
    push s a.pk_l.(!node) (split_task a.pk_group.(!node));
    a.pk_next.(!node) <- a.pk_free;
    a.pk_free <- !node;
    node := next
  done

let group_task_done s g =
  let a = s.arena in
  a.g_outstanding.(g) <- a.g_outstanding.(g) - 1;
  if a.g_outstanding.(g) = finished then finish_group s g

(* ------------------------------------------------------------------ *)
(* Task processing *)

let process_opt_group s set =
  let a = s.arena in
  let g = find_or_create s set in
  if a.g_outstanding.(g) = fresh then begin
    if Relset.cardinal set = 1 then begin
      let i = Relset.min_elt set in
      let n_alternatives = if Rules.has_index_path s.card i then 2 else 1 in
      alloc s (phys_bytes * n_alternatives);
      s.n_phys <- s.n_phys + n_alternatives;
      (* A finished leaf is costed when the plan is priced. *)
      finish_group s g
    end
    else begin
      a.g_outstanding.(g) <- 1;
      (* The valid logical splits: each unordered partition once (the
         side holding the lowest relation is the left), both sides
         connected. The right sides are the connected subsets of the
         rest, listed in reverse of EnumerateCsg's visiting order. *)
      let rest = Relset.diff set (Relset.singleton (Relset.min_elt set)) in
      a.n_splits <- 0;
      Query.iter_connected_subsets s.q rest s.emit_split;
      (* Reverse the right sides in place, then keep, in that order, the
         left side of each whose complement is connected. *)
      let n = a.n_splits in
      for k = 0 to (n / 2) - 1 do
        let r = a.splits.(k) in
        a.splits.(k) <- a.splits.(n - 1 - k);
        a.splits.(n - 1 - k) <- r
      done;
      a.n_splits <- 0;
      for k = 0 to n - 1 do
        let l = Relset.diff set a.splits.(k) in
        if Query.connected s.q l then add_split a l
      done;
      s.n_lexprs <- s.n_lexprs + a.n_splits;
      alloc s (lexpr_bytes * a.n_splits);
      push s g 0
    end
  end

let process_expand s g cursor =
  let a = s.arena in
  let stop = min a.n_splits (cursor + expand_chunk) in
  for k = cursor to stop - 1 do
    a.g_outstanding.(g) <- a.g_outstanding.(g) + 1;
    let l = a.splits.(k) in
    (* LIFO: children optimize before the split is logged. *)
    push s l (split_task g);
    push s (Relset.diff a.g_set.(g) l) opt_group;
    push s l opt_group
  done;
  if stop < a.n_splits then push s g stop
  else
    (* Expansion finished: drop its outstanding unit. *)
    group_task_done s g

(* Both child groups exist by the time a split task runs: the expand
   task pushed their optimize tasks on top of it, so [find_or_create]
   here is a lookup. A child still in progress parks the split. The
   split is logged only once its alternatives are metered: if that
   allocation raises, a search that costs as it goes never offers it. *)
let process_opt_split s l g =
  let a = s.arena in
  let gl = find_or_create s l in
  let gr = find_or_create s (Relset.diff a.g_set.(g) l) in
  if a.g_outstanding.(gl) <> finished then park a gl l g
  else if a.g_outstanding.(gr) <> finished then park a gr l g
  else begin
    alloc s (phys_bytes * 5);
    s.n_phys <- s.n_phys + 5;
    log_split a g gl;
    group_task_done s g
  end

(* ------------------------------------------------------------------ *)

(* The credit expires at every [cpu] call, and at the end of the search. *)
let flush_cpu s =
  settle s;
  s.credit <- 0;
  if s.cpu_pending > 0 then begin
    s.env.Env.cpu (float_of_int s.cpu_pending *. s.params.task_cpu);
    s.cpu_pending <- 0
  end

(* The root was offered something: a split of it was logged, or it is a
   one-relation leaf, whose alternatives are costed against the seed. *)
let root_offered a root =
  let rec logged k =
    k >= 0 && (entry_group a.log.(k) = root || logged (k - 1))
  in
  Relset.cardinal a.g_set.(root) = 1 || logged (a.n_log - 1)

(* The alternative the evaluator left in [a.best] replaces the group's
   best only when strictly cheaper: ties keep the incumbent, so the
   earliest of equal-cost alternatives wins. [gl] is the split's left
   child group (0 for a leaf). *)
let offer a g tag gl =
  let tb = a.tb in
  if
    a.g_win.(g) = no_plan
    || not (tb.Rules.t_io.(g) +. tb.Rules.t_cpu.(g) <= a.best.(2))
  then begin
    tb.Rules.t_io.(g) <- a.best.(0);
    tb.Rules.t_cpu.(g) <- a.best.(1);
    a.g_win.(g) <- pack_win gl tag
  end

(* Price what the search explored, as a search that costs as it goes
   would have: entry terms for every group, the seed as the root's
   incumbent, every finished leaf, then the logged splits in order.
   Returns the number of alternatives priced. *)
let price s ~root ~(seed_join : Plan.t) =
  let a = s.arena in
  if Array.length a.tb.Rules.t_rows < Array.length a.g_set then
    a.tb <- Rules.make_tables (Array.length a.g_set);
  let tb = a.tb in
  for g = 0 to a.n_groups - 1 do
    let set = a.g_set.(g) in
    (* [Card.card] of a singleton is exactly its filtered base rows. *)
    tb.Rules.t_rows.(g) <- Card.card s.card set;
    Rules.set_entry_terms s.model tb g ~width:(Card.width s.card set)
  done;
  tb.Rules.t_io.(root) <- seed_join.Plan.cost_io;
  tb.Rules.t_cpu.(root) <- seed_join.Plan.cost_cpu;
  a.g_win.(root) <- seed_win;
  let costed = ref (5 * a.n_log) in
  for g = 0 to a.n_groups - 1 do
    let set = a.g_set.(g) in
    if Relset.cardinal set = 1 && a.g_outstanding.(g) = finished then begin
      let i = Relset.min_elt set in
      let tag = Rules.cheapest_leaf_into s.model s.card i ~best:a.best in
      costed := !costed + if Rules.has_index_path s.card i then 2 else 1;
      offer a g tag 0
    end
  done;
  for k = 0 to a.n_log - 1 do
    let g = entry_group a.log.(k) and gl = entry_left a.log.(k) in
    let gr = a.index.(slot_of a (Relset.diff a.g_set.(g) a.g_set.(gl))) in
    let tag =
      Rules.cheapest_join_into s.model tb ~s:g ~l:gl ~r:gr ~best:a.best
    in
    offer a g tag gl
  done;
  !costed

(* The winning tree of group [g]. Every group it reaches finished before
   its parent's split was logged, so the columns hold its final best. *)
let rec build s g =
  let a = s.arena in
  let set = a.g_set.(g) and w = a.g_win.(g) in
  if Relset.cardinal set = 1 then
    Rules.leaf_plan s.model s.card (Relset.min_elt set) (win_tag w)
  else begin
    let gl = win_child w in
    let pl = build s gl in
    let pr = build s a.index.(slot_of a (Relset.diff set a.g_set.(gl))) in
    Rules.join_plan s.model ~rows:a.tb.Rules.t_rows.(g) (win_tag w) pl pr
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
      emit_split = add_split arena;
      tasks = 0;
      n_lexprs = 0;
      n_phys = 0;
      allocated = 0;
      cpu_pending = 0;
      credit = 0;
      owed = 0;
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
    alloc s (phys_bytes * Plan.n_operators seed_join);
    push s full opt_group;
    let rec loop () =
      if arena.top = 0 then Complete
      else if s.tasks >= budget then Budget_exhausted
      else if params.honor_stop_early && env.Env.should_stop () then
        Stopped_early
      else begin
        arena.top <- arena.top - 1;
        let x = arena.stack.(2 * arena.top)
        and y = arena.stack.((2 * arena.top) + 1) in
        s.tasks <- s.tasks + 1;
        s.cpu_pending <- s.cpu_pending + 1;
        if s.cpu_pending >= cpu_batch then flush_cpu s;
        if y = opt_group then process_opt_group s x
        else if y >= 0 then process_expand s x y
        else process_opt_split s x (split_owner y);
        loop ()
      end
    in
    let outcome =
      match loop () with
      | o -> o
      | exception Env.Aborted Env.Out_of_memory when params.honor_stop_early ->
          (* The paper's second extension: when memory runs out
             mid-search, return the best plan from the set of already
             explored plans instead of an out-of-memory error. (The memo
             always holds a complete plan thanks to the greedy seed.) *)
          Stopped_early
    in
    flush_cpu s;
    let costed =
      if root_offered arena root then price s ~root ~seed_join else 0
    in
    (* [seed] is [Rules.finalize] of [seed_join]. *)
    let plan =
      if costed = 0 || arena.g_win.(root) = seed_win then seed
      else Rules.finalize model card (build s root)
    in
    Ok
      {
        plan;
        cost = Plan.total_cost plan;
        outcome;
        stats =
          {
            tasks = s.tasks;
            groups = arena.n_groups;
            lexprs = s.n_lexprs;
            phys = s.n_phys;
            allocated_bytes = s.allocated;
            budget;
            costed;
          };
      }
  with Env.Aborted reason ->
    (* Hard failure (gateway timeout, or OOM with the best-plan extension
       disabled): surfaces as an error and the client retries. *)
    Error reason
