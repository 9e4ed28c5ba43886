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

(* ------------------------------------------------------------------ *)
(* Metering

   What the environment sees of a search, and the counters its stats
   report. A live search and a replay drive the same meter through the
   same four kinds of allocation: a group, a leaf's alternatives, an
   expansion's logical splits and a split's physical alternatives. Each
   updates its counters in the same order relative to its [alloc], so
   both make the same env calls and leave the same stats, also when an
   [alloc] raises.

   While a search is recorded, the meter also writes its tape. A task
   meters at most a group and then one other kind of allocation. Its
   code is [k_group] if it created a group, plus the other kind: 1 or 2
   for that many leaf alternatives, [k_lexprs] or [k_split]. A task that
   meters nothing has code 0.

   The tape is cut into windows, one per CPU batch: window k holds tasks
   [k * cpu_batch] to [k * cpu_batch + cpu_batch - 1] (window 0 starts
   at task 1), so the [cpu] call in the first task's [tick] opens each
   window after the first. A window is a header, the length of its body
   in nibbles and, when that is not 0, the groups, lexprs and phys it
   meters, all byte varints, then its body, padded to a whole byte. The
   bytes it meters follow from the three counts. A replay reads the
   header to advance over the rest of a window in one step (see
   [jump]).

   A body is a string of nibbles, each a token: a run of tasks of code
   0 and then one task of another code. Tokens 0-3 are a split after a
   run of that length, 4-7 a new group with its splits (the search's
   two common codes, neither ever after a run longer than 3 in the SALES
   searches), and 8-14 one task of another code in [rare_codes] with no
   run before it. Token 15 is a run of any length, written as a nibble
   varint, and the next token has no run. A code holding [k_lexprs] is
   followed by the split count as a nibble varint, since even a count of
   0 can reach the env. The body leaves out the run that ends the
   window, since the window's task count implies it. *)

let k_lexprs = 3
let k_split = 4
let k_group = 5
let group_lexprs = k_group + k_lexprs
let rare_codes =
  [| 1; 2; k_lexprs; k_group; k_group + 1; k_group + 2; k_group + k_split |]
let run_token = 15

type writer = {
  w_tape : Buffer.t;  (* the windows closed so far *)
  w_buf : Buffer.t;  (* the open window's body, whole bytes of it *)
  mutable w_nibbles : int;  (* its length in nibbles *)
  mutable w_low : int;  (* its last nibble, while it has an odd length *)
  mutable w_run : int;  (* tasks of code 0 not yet written *)
  mutable w_code : int;  (* the current task's code so far *)
  mutable w_count : int;  (* its split count, when it holds [k_lexprs] *)
  mutable w_groups : int;  (* the meter's counts when the window opened *)
  mutable w_lexprs : int;
  mutable w_phys : int;
}

type meter = {
  env : Env.t;
  task_cpu : float;
  mutable tasks : int;
  mutable groups : int;
  mutable lexprs : int;
  mutable phys : int;
  mutable allocated : int;
  mutable cpu_pending : int;
  mutable credit : int;  (* bytes the env lets us meter locally *)
  mutable owed : int;  (* bytes metered locally, not yet reported *)
  mutable tape : writer option;  (* [Some] while the search is recorded *)
}

let create_meter env ~task_cpu =
  {
    env;
    task_cpu;
    tasks = 0;
    groups = 0;
    lexprs = 0;
    phys = 0;
    allocated = 0;
    cpu_pending = 0;
    credit = 0;
    owed = 0;
    tape = None;
  }

(* Report the bytes metered locally. Their sum fits in the credit the
   env granted, so this call crosses no gate and reclaims nothing. *)
let settle m =
  if m.owed > 0 then begin
    let owed = m.owed in
    m.owed <- 0;
    ignore (m.env.Env.alloc owed)
  end

(* Within the credit an allocation is an add; past it, the bytes owed
   are settled first and the new ones metered as one call, whose credit
   replaces what was left (see {!Env.t}). *)
let alloc m bytes =
  m.allocated <- m.allocated + bytes;
  if m.credit > 0 && bytes <= m.credit then begin
    m.credit <- m.credit - bytes;
    m.owed <- m.owed + bytes
  end
  else begin
    settle m;
    m.credit <- m.env.Env.alloc bytes
  end

let note m kind count =
  match m.tape with
  | None -> ()
  | Some w ->
      assert (w.w_code = 0 || (w.w_code = k_group && kind < k_group));
      w.w_code <- w.w_code + kind;
      w.w_count <- count

let meter_group m =
  m.groups <- m.groups + 1;
  note m k_group 0;
  alloc m group_bytes

let meter_leaf m n =
  note m n 0;
  alloc m (phys_bytes * n);
  m.phys <- m.phys + n

let meter_lexprs m n =
  m.lexprs <- m.lexprs + n;
  note m k_lexprs n;
  alloc m (lexpr_bytes * n)

let meter_split m =
  note m k_split 0;
  alloc m (phys_bytes * 5);
  m.phys <- m.phys + 5

(* The credit expires at every [cpu] call, and at the end of the search. *)
let flush_cpu m =
  settle m;
  m.credit <- 0;
  if m.cpu_pending > 0 then begin
    m.env.Env.cpu (float_of_int m.cpu_pending *. m.task_cpu);
    m.cpu_pending <- 0
  end

let tick m =
  m.tasks <- m.tasks + 1;
  m.cpu_pending <- m.cpu_pending + 1;
  if m.cpu_pending >= cpu_batch then flush_cpu m

let add_byte buf b = Buffer.add_char buf (Char.unsafe_chr b)

let rec add_varint buf n =
  if n < 0x80 then add_byte buf n
  else begin
    add_byte buf (0x80 lor (n land 0x7f));
    add_varint buf (n lsr 7)
  end

(* A byte holds two nibbles, the first in its low half. *)
let add_nibble w n =
  if w.w_nibbles land 1 = 0 then w.w_low <- n
  else add_byte w.w_buf (w.w_low lor (n lsl 4));
  w.w_nibbles <- w.w_nibbles + 1

(* Three bits a nibble, the top bit set on all but the last. *)
let rec add_nibble_varint w n =
  if n < 8 then add_nibble w n
  else begin
    add_nibble w (8 lor (n land 7));
    add_nibble_varint w (n lsr 3)
  end

let rec rare_token code k =
  if rare_codes.(k) = code then 8 + k else rare_token code (k + 1)

let end_task w =
  let code = w.w_code and run = w.w_run in
  if code = 0 then w.w_run <- run + 1
  else begin
    let run =
      if run > 3 || (run > 0 && code <> k_split && code <> group_lexprs)
      then begin
        add_nibble w run_token;
        add_nibble_varint w run;
        0
      end
      else run
    in
    add_nibble w
      (if code = k_split then run
       else if code = group_lexprs then 4 + run
       else rare_token code 0);
    if code mod k_group = k_lexprs then add_nibble_varint w w.w_count;
    w.w_run <- 0;
    w.w_code <- 0
  end

(* Write the open window, its header then its body, and open the next.
   The run not yet written ends the window, so it is dropped. *)
let close_window w m =
  w.w_run <- 0;
  if w.w_nibbles land 1 = 1 then add_byte w.w_buf w.w_low;
  add_varint w.w_tape w.w_nibbles;
  if w.w_nibbles > 0 then begin
    add_varint w.w_tape (m.groups - w.w_groups);
    add_varint w.w_tape (m.lexprs - w.w_lexprs);
    add_varint w.w_tape (m.phys - w.w_phys)
  end;
  Buffer.add_buffer w.w_tape w.w_buf;
  Buffer.clear w.w_buf;
  w.w_nibbles <- 0;
  w.w_groups <- m.groups;
  w.w_lexprs <- m.lexprs;
  w.w_phys <- m.phys

(* The task ends a window. *)
let window_last t = t mod cpu_batch = cpu_batch - 1

let close_tape w m =
  if m.tasks > 0 && not (window_last m.tasks) then close_window w m;
  Buffer.contents w.w_tape

(* ------------------------------------------------------------------ *)
(* The live search *)

type search = {
  model : Cost.model;
  card : Card.t;
  q : Query.t;
  idx_bits : int;  (* [Rules.index_path_bits card] *)
  arena : arena;
  emit_split : Relset.t -> unit;  (* [add_split arena], built once *)
  m : meter;
}

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
    meter_group s.m;
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

(* The task code below does set arithmetic with raw bit operations
   ([land lnot] for a difference, [land (x - 1)] to drop the lowest
   member) rather than {!Relset} calls: the recorder runs these once per
   task, and a call into another module is not inlined. *)
let process_opt_group s set =
  let a = s.arena in
  let g = find_or_create s set in
  if a.g_outstanding.(g) = fresh then begin
    if set land (set - 1) = 0 then begin
      let i = Relset.min_elt set in
      meter_leaf s.m (if s.idx_bits land (1 lsl i) <> 0 then 2 else 1);
      (* A finished leaf is costed when the plan is priced. *)
      finish_group s g
    end
    else begin
      a.g_outstanding.(g) <- 1;
      (* The valid logical splits: each unordered partition once (the
         side holding the lowest relation is the left), both sides
         connected. The right sides are the connected subsets of the
         rest, listed in reverse of EnumerateCsg's visiting order. *)
      let rest = set land (set - 1) in
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
        let l = set land lnot a.splits.(k) in
        if Query.connected s.q l then add_split a l
      done;
      meter_lexprs s.m a.n_splits;
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
    push s (a.g_set.(g) land lnot l) opt_group;
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
  let gr = find_or_create s (a.g_set.(g) land lnot l) in
  if a.g_outstanding.(gl) <> finished then park a gl l g
  else if a.g_outstanding.(gr) <> finished then park a gr l g
  else begin
    meter_split s.m;
    log_split a g gl;
    group_task_done s g
  end

let step s =
  let a = s.arena in
  a.top <- a.top - 1;
  let x = a.stack.(2 * a.top) and y = a.stack.((2 * a.top) + 1) in
  tick s.m;
  if y = opt_group then process_opt_group s x
  else if y >= 0 then process_expand s x y
  else process_opt_split s x (split_owner y)

let rec run_live s ~budget ~honor =
  if s.arena.top = 0 then Complete
  else if s.m.tasks >= budget then Budget_exhausted
  else if honor && s.m.env.Env.should_stop () then Stopped_early
  else begin
    step s;
    run_live s ~budget ~honor
  end

(* ------------------------------------------------------------------ *)
(* Pricing and plan building *)

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
      costed := !costed + if s.idx_bits land (1 lsl i) <> 0 then 2 else 1;
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

(* The plan of a search whose memo is [s.arena]: the greedy seed unless
   the root was offered something, and then the priced memo's. Returns
   the plan and the number of alternatives priced. *)
let plan_of s ~root ~seed ~(seed_join : Plan.t) =
  let costed =
    if root_offered s.arena root then price s ~root ~seed_join else 0
  in
  (* [seed] is [Rules.finalize] of [seed_join]. *)
  if costed = 0 || s.arena.g_win.(root) = seed_win then (seed, costed)
  else (Rules.finalize s.model s.card (build s root), costed)

(* ------------------------------------------------------------------ *)
(* Replay

   A search that reads no cost takes a course fixed by its key: the
   query's adjacency masks (their count is the relation count), its
   index-path bits and the params. Its budget and the env only decide
   where it stops, and costs only decide its plan, through the pricing
   that follows a search whose root was offered something.

   The memo records each key's course silently, a stretch at a time. A
   key's first recording covers [horizon] tasks, or the budget if that
   is smaller. A replay that reaches the end of its tape before its
   budget extends it: it takes a longer recording another replay made
   meanwhile, or records anew to twice the length, or its budget if
   that is smaller, and reads on from the same task.

   A replay drives the instance's own meter from the tape, so the env
   sees what it sees of the live search, with one difference {!Env.t}
   allows: nothing the search can see changes between two env calls
   other than polls, so a run of polls between two such calls is polled
   once. After each task that may have called the env, the replay makes
   the budget check and the [should_stop] poll, then advances in one
   step over the tasks ahead that call nothing: the rest of the window
   when its bytes fit in the credit, else the run of tasks that meter
   nothing. It decodes task by task, with [tick] and each allocation,
   only where that step cannot reach: the first task of each window,
   whose [tick] calls [cpu], a task whose allocation may pass the
   credit, and a window in which the budget ends.

   A recording notes the first task after which the root had been
   offered something. An instance whose budget reaches that task
   searches live. So does a replay whose extension finds that task
   within its budget: it runs the search silently to the task it has
   reached, on an arena of its own, and continues it on its own meter,
   from that task's budget check on. *)

type key = { k_adj : Relset.t array; k_bits : int; k_params : params }

(* A key's hash mixes every adjacency mask, the index bits and the
   params, one [Query.hash_mix] step each: star graphs differ in masks
   that a multiply-add by 31 folds together. Keys are only probed and
   replaced, never iterated, so the hash reaches no output. *)
module Keys = Hashtbl.Make (struct
  type t = key

  (* Top level, so a comparison allocates no closure. *)
  let rec same_masks (a : Relset.t array) b i =
    i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && same_masks a b (i - 1))

  let equal a b =
    a.k_bits = b.k_bits
    && Array.length a.k_adj = Array.length b.k_adj
    && same_masks a.k_adj b.k_adj (Array.length a.k_adj - 1)
    && (a.k_params == b.k_params || a.k_params = b.k_params)

  let hash k =
    Array.fold_left Query.hash_mix
      (Query.hash_mix (Hashtbl.hash k.k_params) k.k_bits)
      k.k_adj
    land max_int
end)

type recording = {
  r_tasks : int;  (* tasks the tape covers *)
  r_tape : string;
  r_offered : int;
      (* the first task after which the root had been offered something,
         or [max_int] if none within [r_tasks] *)
  r_complete : bool;  (* the search emptied its task stack at [r_tasks] *)
}

(* A memo's recordings, the arena and tape buffers the recorder reuses,
   and the free arenas of its live searches: compiles suspend at
   governor gateways, so searches in flight need distinct arenas, and
   the pool settles at the most that ran at once. Made by the memo's
   first search, so a server that never compiles pays nothing for
   them. *)
type memo_state = {
  entries : recording Keys.t;
  recorder : arena;
  tape_buf : Buffer.t;
  window_buf : Buffer.t;
  mutable spare : arena list;
}

type replay_memo = { mutable state : memo_state option }

(* The most tasks a key's first recording covers. *)
let horizon = 16384

let create_replay_memo () = { state = None }

let memo_state memo =
  match memo.state with
  | Some st -> st
  | None ->
      let st =
        {
          entries = Keys.create 64;
          recorder = create_arena ();
          tape_buf = Buffer.create 4096;
          window_buf = Buffer.create 256;
          spare = [];
        }
      in
      memo.state <- Some st;
      st

(* A search of [q] on [arena], its root group made and its first task
   pushed, metering into [m]. Reset on entry rather than trusting the
   caller: an aborted previous search leaves an arena mid-state. *)
let start_search ~arena ~m ~model ~card ~q ~idx_bits =
  reset_arena arena;
  let s =
    { model; card; q; idx_bits; arena; emit_split = add_split arena; m }
  in
  let full = Relset.full (Query.n_rels q) in
  let root = find_or_create s full in
  push s full opt_group;
  (s, root)

(* The search's meter when nothing watches it: no env, so it never
   suspends. *)
let silent () = create_meter Env.null ~task_cpu:0.0

(* Run the search to [upto] tasks silently, on the recorder's arena,
   writing its tape. A one-relation root is a leaf, offered from the
   start. *)
let record st ~model ~card ~q ~idx_bits ~upto =
  Buffer.clear st.tape_buf;
  Buffer.clear st.window_buf;
  let s, root =
    start_search ~arena:st.recorder ~m:(silent ()) ~model ~card ~q ~idx_bits
  in
  let a = s.arena and m = s.m in
  let w =
    {
      w_tape = st.tape_buf;
      w_buf = st.window_buf;
      w_nibbles = 0;
      w_low = 0;
      w_run = 0;
      w_code = 0;
      w_count = 0;
      w_groups = m.groups;
      w_lexprs = m.lexprs;
      w_phys = m.phys;
    }
  in
  m.tape <- Some w;
  let offered = ref (if root_offered a root then 0 else max_int) in
  while a.top > 0 && m.tasks < upto do
    let logged = a.n_log in
    step s;
    end_task w;
    if window_last m.tasks then close_window w m;
    if
      !offered = max_int && a.n_log > logged
      && entry_group a.log.(logged) = root
    then offered := m.tasks
  done;
  {
    r_tasks = m.tasks;
    r_tape = close_tape w m;
    r_offered = !offered;
    r_complete = a.top = 0;
  }

(* A replay: the instance's context, the recording it reads and its
   place in the tape and in the current window. *)
type cursor = {
  st : memo_state;
  key : key;
  c_model : Cost.model;
  c_card : Card.t;
  c_q : Query.t;
  c_bits : int;
  budget : int;
  mutable r : recording;
  mutable pos : int;  (* in nibbles *)
  mutable run : int;  (* tasks of code 0 left before [next] *)
  mutable next : int;  (* the code of the task after them, or 0 *)
  mutable w_end : int;  (* the nibble where the window's body ends *)
  mutable w_last : int;  (* the window's last task, 0 before the first *)
  (* The meter's counts when the window opened, and when it closes. *)
  mutable b_groups : int;
  mutable b_lexprs : int;
  mutable b_phys : int;
  mutable e_groups : int;
  mutable e_lexprs : int;
  mutable e_phys : int;
}

(* The recording to replay for an instance, made now if the key has
   none; [None] when the instance must search live. *)
let recording_for memo params ~model ~card ~q ~idx_bits ~budget =
  let st = memo_state memo in
  let key = { k_adj = q.Query.adj; k_bits = idx_bits; k_params = params } in
  let r =
    match Keys.find_opt st.entries key with
    | Some r -> r
    | None ->
        let r =
          record st ~model ~card ~q ~idx_bits ~upto:(Int.min budget horizon)
        in
        Keys.replace st.entries key r;
        r
  in
  if r.r_offered <= budget then None
  else
    Some
      {
        st;
        key;
        c_model = model;
        c_card = card;
        c_q = q;
        c_bits = idx_bits;
        budget;
        r;
        pos = 0;
        run = 0;
        next = 0;
        w_end = 0;
        w_last = 0;
        b_groups = 0;
        b_lexprs = 0;
        b_phys = 0;
        e_groups = 0;
        e_lexprs = 0;
        e_phys = 0;
      }

(* Headers are whole bytes, at an even nibble. *)
let read_byte c =
  let b = Char.code c.r.r_tape.[c.pos lsr 1] in
  c.pos <- c.pos + 2;
  b

let rec read_varint c shift acc =
  let b = read_byte c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else read_varint c (shift + 7) acc

let read_nibble c =
  let b = Char.code c.r.r_tape.[c.pos lsr 1] in
  let n = (b lsr ((c.pos land 1) * 4)) land 15 in
  c.pos <- c.pos + 1;
  n

let rec read_nibble_varint c shift acc =
  let n = read_nibble c in
  let acc = acc lor ((n land 7) lsl shift) in
  if n < 8 then acc else read_nibble_varint c (shift + 3) acc

(* Read the next token into [c.run] and [c.next]. *)
let read_token c =
  let t = read_nibble c in
  if t < 4 then begin
    c.run <- t;
    c.next <- k_split
  end
  else if t < 8 then begin
    c.run <- t - 4;
    c.next <- group_lexprs
  end
  else if t < run_token then begin
    c.run <- 0;
    c.next <- rare_codes.(t - 8)
  end
  else begin
    c.run <- read_nibble_varint c 0 0;
    c.next <- 0
  end

(* Nibble [p] rounded up to the first of a byte: where the header after
   a body that ends at [p] starts. *)
let byte_up p = (p + 1) land lnot 1

(* Read the header of the window after [c.pos], which holds task [t] and
   opened on the counts in [c]'s [b_] fields. *)
let open_window c t =
  c.pos <- byte_up c.pos;
  let len = read_varint c 0 0 in
  let groups = if len = 0 then 0 else read_varint c 0 0 in
  let lexprs = if len = 0 then 0 else read_varint c 0 0 in
  let phys = if len = 0 then 0 else read_varint c 0 0 in
  c.w_end <- c.pos + len;
  c.w_last <- (t / cpu_batch * cpu_batch) + cpu_batch - 1;
  c.e_groups <- c.b_groups + groups;
  c.e_lexprs <- c.b_lexprs + lexprs;
  c.e_phys <- c.b_phys + phys

(* Place the cursor after the first [n] tasks of its tape. The window
   that holds task [n] is the one the cursor is in, so the counts it
   opened on stand. *)
let skip c n =
  c.pos <- 0;
  c.run <- 0;
  c.next <- 0;
  c.w_end <- 0;
  c.w_last <- 0;
  if n > 0 then begin
    for _ = 1 to n / cpu_batch do
      c.pos <- byte_up c.pos;
      let len = read_varint c 0 0 in
      if len > 0 then
        for _ = 1 to 3 do
          ignore (read_varint c 0 0)
        done;
      c.pos <- c.pos + len
    done;
    open_window c n;
    let left = ref (n - Int.max 1 (n / cpu_batch * cpu_batch) + 1) in
    while !left > 0 do
      if c.run > 0 then begin
        let k = Int.min c.run !left in
        c.run <- c.run - k;
        left := !left - k
      end
      else if c.next <> 0 then begin
        if c.next mod k_group = k_lexprs then ignore (read_nibble_varint c 0 0);
        c.next <- 0;
        decr left
      end
      else if c.pos < c.w_end then read_token c
      else left := 0
    done
  end

(* The tape ends before the budget: read on from a longer recording.
   True when that recording has the root offered within the budget. *)
let extend c =
  let at = c.r.r_tasks in
  let r =
    match Keys.find_opt c.st.entries c.key with
    | Some r when r.r_tasks > at -> r
    | _ ->
        let r =
          record c.st ~model:c.c_model ~card:c.c_card ~q:c.c_q
            ~idx_bits:c.c_bits
            ~upto:(Int.min c.budget (Int.max (2 * at) (at + 1)))
        in
        Keys.replace c.st.entries c.key r;
        r
  in
  c.r <- r;
  skip c at;
  r.r_offered <= c.budget

(* Meter one task's allocations as the recorded search did. The first
   task of a window reads its header first. A task past the window's
   body ends it and meters nothing. *)
let rec replay_task m c =
  if c.run > 0 then c.run <- c.run - 1
  else if c.next = 0 then begin
    if m.tasks > c.w_last then begin
      c.b_groups <- m.groups;
      c.b_lexprs <- m.lexprs;
      c.b_phys <- m.phys;
      open_window c m.tasks;
      replay_task m c
    end
    else if c.pos < c.w_end then begin
      read_token c;
      replay_task m c
    end
  end
  else begin
    let code = c.next in
    c.next <- 0;
    let kind =
      if code >= k_group then begin
        meter_group m;
        code - k_group
      end
      else code
    in
    if kind = k_split then meter_split m
    else if kind = k_lexprs then meter_lexprs m (read_nibble_varint c 0 0)
    else if kind > 0 then meter_leaf m kind
  end

(* Advance over the run of tasks ahead that meter nothing, to [stop] at
   most. Past the window's body, that is the rest of the window. *)
let rec skip_zeros m c ~stop moved =
  if m.tasks < stop && c.run = 0 && c.next = 0 then begin
    if c.pos < c.w_end then read_token c
    else c.run <- Int.min c.w_last c.r.r_tasks - m.tasks
  end;
  let k = Int.min c.run (stop - m.tasks) in
  if k <= 0 then moved
  else begin
    c.run <- c.run - k;
    m.tasks <- m.tasks + k;
    m.cpu_pending <- m.cpu_pending + k;
    skip_zeros m c ~stop true
  end

(* Advance over the tasks ahead that call no env, as far as the window,
   the tape and the budget allow, and say whether the cursor moved. No
   [tick] within a window calls [cpu], so only allocations can. When the
   bytes left in the window are below the credit, none of them does:
   each finds a credit above 0 that covers it, even an allocation of 0
   bytes, which calls the env when the credit is 0. The meter then takes
   the counts the window closes on, and owes its bytes. Otherwise only
   the run of tasks before the next one that meters something is sure
   to call nothing. *)
let jump m c =
  let stop = Int.min c.w_last c.r.r_tasks in
  if m.tasks >= stop then false
  else
    let bytes =
      (group_bytes * (c.e_groups - m.groups))
      + (lexpr_bytes * (c.e_lexprs - m.lexprs))
      + (phys_bytes * (c.e_phys - m.phys))
    in
    if bytes < m.credit && stop <= c.budget then begin
      m.cpu_pending <- m.cpu_pending + (stop - m.tasks);
      m.tasks <- stop;
      m.groups <- c.e_groups;
      m.lexprs <- c.e_lexprs;
      m.phys <- c.e_phys;
      m.allocated <- m.allocated + bytes;
      m.credit <- m.credit - bytes;
      m.owed <- m.owed + bytes;
      c.pos <- c.w_end;
      c.run <- 0;
      c.next <- 0;
      true
    end
    else skip_zeros m c ~stop:(Int.min stop c.budget) false

(* The live loop's checks, in its order, then [jump], or [tick] and
   [replay_task] for one task. [polled] says that no env call has
   happened since the last poll, so the next is not needed. At the
   tape's end an unfinished search extends it first, and when the
   extension finds the root offered within the budget, [live ()]
   continues the search live from this task's checks on. *)
let rec run_replay m c ~honor ~live ~polled =
  if m.tasks <> c.r.r_tasks then replay_step m c ~honor ~live ~polled
  else if c.r.r_complete then Complete
  else if m.tasks < c.budget && extend c then live ()
  else replay_step m c ~honor ~live ~polled

and replay_step m c ~honor ~live ~polled =
  if m.tasks >= c.budget then Budget_exhausted
  else if (not polled) && honor && m.env.Env.should_stop () then Stopped_early
  else if (not polled) && jump m c then
    run_replay m c ~honor ~live ~polled:true
  else begin
    tick m;
    if c.run > 0 then c.run <- c.run - 1 else replay_task m c;
    run_replay m c ~honor ~live ~polled:false
  end

(* Return a live search's arena to the memo it was borrowed from. A
   search that aborts does not return it, and the memo's next live
   search makes a new one. *)
let give_back pool a =
  match pool with Some st -> st.spare <- a :: st.spare | None -> ()

(* ------------------------------------------------------------------ *)

let optimize ?(params = default_params) ?arena ?replay ~env model cat q =
  let card = Card.create cat q in
  let m = create_meter env ~task_cpu:params.task_cpu in
  let honor = params.honor_stop_early in
  (* The paper's second extension: when memory runs out mid-search,
     return the best plan from the set of already explored plans instead
     of an out-of-memory error. (The memo always holds a complete plan
     thanks to the greedy seed.) *)
  let best_so_far_on_oom run =
    match run () with
    | o -> o
    | exception Env.Aborted Env.Out_of_memory when honor -> Stopped_early
  in
  try
    (* Seed: greedy left-deep plan guarantees a complete plan exists from
       the start (pre-aggregation form lives in the memo root). It makes
       no env call, so computing it before the root group is metered
       changes nothing the env sees. *)
    let seed = Greedy.plan model card in
    let budget =
      (* Budget scales with estimated query cost (dynamic optimization). *)
      min params.max_tasks
        (max params.min_tasks
           (int_of_float (Plan.total_cost seed *. tasks_per_cost)))
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
    let idx_bits = Rules.index_path_bits card in
    let cursor =
      match replay with
      | Some memo ->
          recording_for memo params ~model ~card ~q ~idx_bits ~budget
      | None -> None
    in
    (* A live search runs on [arena], else on a free arena of the memo's
       pool, else on a new one. Its first [skip] tasks run silently: a
       replay going live reruns the tasks it has replayed. *)
    let pool =
      match (arena, replay) with
      | None, Some memo -> Some (memo_state memo)
      | _ -> None
    in
    let live = ref None in
    let start_live ~skip =
      let arena =
        match (arena, pool) with
        | Some a, _ -> a
        | None, Some ({ spare = a :: rest; _ } as st) ->
            st.spare <- rest;
            a
        | None, _ -> create_arena ()
      in
      let s, root =
        start_search ~arena
          ~m:(if skip > 0 then silent () else m)
          ~model ~card ~q ~idx_bits
      in
      for _ = 1 to skip do
        step s
      done;
      let s = { s with m } in
      live := Some (s, root);
      s
    in
    let outcome =
      match cursor with
      | Some c ->
          (* The root group, then the seed, as the live search meters
             them. *)
          meter_group m;
          alloc m (phys_bytes * Plan.n_operators seed_join);
          best_so_far_on_oom (fun () ->
              run_replay m c ~honor ~polled:false ~live:(fun () ->
                  run_live (start_live ~skip:m.tasks) ~budget ~honor))
      | None ->
          let s = start_live ~skip:0 in
          alloc m (phys_bytes * Plan.n_operators seed_join);
          best_so_far_on_oom (fun () -> run_live s ~budget ~honor)
    in
    flush_cpu m;
    let plan, costed =
      match !live with
      | None -> (seed, 0)
      | Some (s, root) ->
          let pc = plan_of s ~root ~seed ~seed_join in
          give_back pool s.arena;
          pc
    in
    Ok
      {
        plan;
        cost = Plan.total_cost plan;
        outcome;
        stats =
          {
            tasks = m.tasks;
            groups = m.groups;
            lexprs = m.lexprs;
            phys = m.phys;
            allocated_bytes = m.allocated;
            budget;
            costed;
          };
      }
  with Env.Aborted reason ->
    (* Hard failure (gateway timeout, or OOM with the best-plan extension
       disabled): surfaces as an error and the client retries. *)
    Error reason
