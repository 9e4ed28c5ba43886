(* The replacement policies as they were before the flat buffer pool:
   polymorphic [Hashtbl]s keyed by [(table, page)], lazily-synced queues
   and a [Sim.Heap] of [(t2, t1, page)] entries. Kept as the differential
   oracle for [Bufpool.Policy]; the only change is that LRU-2's compaction
   drains the heap with [pop_exn] instead of the since-deleted
   [Sim.Heap.to_list] and [Sim.Heap.clear]. *)

type page = int * int
type kind = Lru | Clock | Lru2

(* --- LRU: hashtable of current stamps + lazily-cleaned FIFO of (page,
   stamp) entries; an entry is live iff its stamp is still current. --- *)
module Lru_impl = struct
  type t = {
    stamps : (page, int) Hashtbl.t;
    queue : (page * int) Queue.t;
    mutable clock : int;
  }

  let create () = { stamps = Hashtbl.create 256; queue = Queue.create (); clock = 0 }

  (* Every touch pushes a fresh (page, stamp) pair and only [evict] drops
     stale ones, so a touch-heavy, eviction-free workload grows the queue
     without bound. Once stale entries outnumber live pages, rebuild the
     queue from the live entries (FIFO order preserved); the [max _ 32]
     keeps tiny pools from compacting on every touch. *)
  let compact t =
    let fresh = Queue.create () in
    Queue.iter
      (fun ((p, stamp) as e) ->
        match Hashtbl.find_opt t.stamps p with
        | Some current when current = stamp -> Queue.push e fresh
        | _ -> ())
      t.queue;
    Queue.clear t.queue;
    Queue.transfer fresh t.queue

  let maybe_compact t =
    let live = Hashtbl.length t.stamps in
    if Queue.length t.queue - live > max live 32 then compact t

  let insert t p =
    t.clock <- t.clock + 1;
    Hashtbl.replace t.stamps p t.clock;
    Queue.push (p, t.clock) t.queue;
    maybe_compact t

  let touch t p =
    if Hashtbl.mem t.stamps p then begin
      t.clock <- t.clock + 1;
      Hashtbl.replace t.stamps p t.clock;
      Queue.push (p, t.clock) t.queue;
      maybe_compact t
    end

  let mem t p = Hashtbl.mem t.stamps p

  let rec evict t =
    match Queue.take_opt t.queue with
    | None -> None
    | Some (p, stamp) -> (
        match Hashtbl.find_opt t.stamps p with
        | Some current when current = stamp ->
            Hashtbl.remove t.stamps p;
            Some p
        | _ -> evict t)

  let size t = Hashtbl.length t.stamps
  let backlog t = Queue.length t.queue
end

(* --- CLOCK (second chance): FIFO of nodes with reference bits. --- *)
module Clock_impl = struct
  type node = { page : page; mutable refbit : bool; mutable dead : bool }

  type t = { nodes : (page, node) Hashtbl.t; ring : node Queue.t }

  let create () = { nodes = Hashtbl.create 256; ring = Queue.create () }

  let insert t p =
    let n = { page = p; refbit = false; dead = false } in
    Hashtbl.replace t.nodes p n;
    Queue.push n t.ring

  let touch t p =
    match Hashtbl.find_opt t.nodes p with
    | Some n -> n.refbit <- true
    | None -> ()

  let mem t p = Hashtbl.mem t.nodes p

  let rec evict t =
    match Queue.take_opt t.ring with
    | None -> None
    | Some n when n.dead -> evict t
    | Some n when n.refbit ->
        n.refbit <- false;
        Queue.push n t.ring;
        evict t
    | Some n ->
        n.dead <- true;
        Hashtbl.remove t.nodes n.page;
        Some n.page

  let size t = Hashtbl.length t.nodes
  let backlog t = Queue.length t.ring
end

(* --- LRU-2: evict the page with the oldest penultimate access (pages
   touched only once, t2 = -1, go first in t1 order). Lazily-synced heap
   keyed by (t2, t1). --- *)
module Lru2_impl = struct
  type times = { mutable t1 : int; mutable t2 : int }

  type t = {
    times : (page, times) Hashtbl.t;
    heap : (int * int * page) Sim.Heap.t;
    mutable clock : int;
  }

  let create () =
    {
      times = Hashtbl.create 256;
      heap = Sim.Heap.create ~cmp:compare ();
      clock = 0;
    }

  (* Same lazy-sync bloat as the LRU queue: each touch adds a heap entry
     and only [evict] discards stale ones. Rebuild the heap from the live
     entries once stale ones dominate — the comparator is a total order
     on (t2, t1, page), so re-adding live entries cannot change eviction
     order. *)
  let compact t =
    let rec drain acc =
      if Sim.Heap.is_empty t.heap then acc
      else drain (Sim.Heap.pop_exn t.heap :: acc)
    in
    let entries = drain [] in
    List.iter
      (fun ((t2, t1, p) as e) ->
        match Hashtbl.find_opt t.times p with
        | Some ts when ts.t1 = t1 && ts.t2 = t2 -> Sim.Heap.add t.heap e
        | _ -> ())
      entries

  let maybe_compact t =
    let live = Hashtbl.length t.times in
    if Sim.Heap.size t.heap - live > max live 32 then compact t

  let push t p (ts : times) = Sim.Heap.add t.heap (ts.t2, ts.t1, p)

  let insert t p =
    t.clock <- t.clock + 1;
    let ts = { t1 = t.clock; t2 = -1 } in
    Hashtbl.replace t.times p ts;
    push t p ts;
    maybe_compact t

  let touch t p =
    match Hashtbl.find_opt t.times p with
    | None -> ()
    | Some ts ->
        t.clock <- t.clock + 1;
        ts.t2 <- ts.t1;
        ts.t1 <- t.clock;
        push t p ts;
        maybe_compact t

  let mem t p = Hashtbl.mem t.times p

  let rec evict t =
    if Sim.Heap.is_empty t.heap then None
    else begin
      let t2, t1, p = Sim.Heap.pop_exn t.heap in
      match Hashtbl.find_opt t.times p with
      | Some ts when ts.t1 = t1 && ts.t2 = t2 ->
          Hashtbl.remove t.times p;
          Some p
      | _ -> evict t
    end

  let size t = Hashtbl.length t.times
  let backlog t = Sim.Heap.size t.heap
end

type t =
  | T_lru of Lru_impl.t
  | T_clock of Clock_impl.t
  | T_lru2 of Lru2_impl.t

let create = function
  | Lru -> T_lru (Lru_impl.create ())
  | Clock -> T_clock (Clock_impl.create ())
  | Lru2 -> T_lru2 (Lru2_impl.create ())

let insert t p =
  match t with
  | T_lru x -> Lru_impl.insert x p
  | T_clock x -> Clock_impl.insert x p
  | T_lru2 x -> Lru2_impl.insert x p

let touch t p =
  match t with
  | T_lru x -> Lru_impl.touch x p
  | T_clock x -> Clock_impl.touch x p
  | T_lru2 x -> Lru2_impl.touch x p

let mem t p =
  match t with
  | T_lru x -> Lru_impl.mem x p
  | T_clock x -> Clock_impl.mem x p
  | T_lru2 x -> Lru2_impl.mem x p

let evict t =
  match t with
  | T_lru x -> Lru_impl.evict x
  | T_clock x -> Clock_impl.evict x
  | T_lru2 x -> Lru2_impl.evict x

let size t =
  match t with
  | T_lru x -> Lru_impl.size x
  | T_clock x -> Clock_impl.size x
  | T_lru2 x -> Lru2_impl.size x

let backlog t =
  match t with
  | T_lru x -> Lru_impl.backlog x
  | T_clock x -> Clock_impl.backlog x
  | T_lru2 x -> Lru2_impl.backlog x

let kind = function T_lru _ -> Lru | T_clock _ -> Clock | T_lru2 _ -> Lru2
