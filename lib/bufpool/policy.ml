type kind = Lru | Clock | Lru2

(* One flat structure serves all three policies. A page is an int key.
   Per-page state lives in slot columns; free slots are chained through
   [next]. The index maps a key to its slot. Nothing on the touch or
   evict path allocates, and no entry is ever stale: a touch updates the
   page's own slot in place.

   - LRU and CLOCK keep the resident slots on a circular doubly-linked
     list whose [head] is the oldest entry. An LRU touch moves the slot to
     the tail; CLOCK's hand is [head], and giving a page its second chance
     moves it from head to tail by advancing [head].
   - LRU-2's victim is the least (t2, t1), with t2 = -1 for a page
     touched only once. Such a page's key is (-1, insertion stamp), so
     the once-touched pages, in insertion order, precede every
     re-referenced page. They wait on the ring, which [insert] appends
     to, and the victim is [head] while there is one. A second touch
     moves the page into an indexed binary min-heap ordered by (t2, t1);
     a later touch raises its key, so it sifts down from where it
     stands. The heap's root is the victim once the ring is empty. This
     is the A1in/Am split of 2Q, but the victims are exactly LRU-2's. *)
type t = {
  kind : kind;
  mutable index : int array;
      (* key -> slot: open addressing with linear probing and
         backward-shift deletion, -1 empty, at most half full *)
  mutable shift : int;  (* 63 - log2 (length of index) *)
  mutable keys : int array;
  mutable prev : int array;  (* ring links; LRU-2: once-touched pages only *)
  mutable next : int array;  (* ring links; free-list links on free slots *)
  mutable refbit : bool array;  (* CLOCK *)
  mutable t1 : int array;  (* LRU-2: time of the last access *)
  mutable t2 : int array;  (* LRU-2: time of the one before, -1 if none *)
  mutable pos : int array;  (* LRU-2: slot -> heap position *)
  mutable heap : int array;  (* LRU-2: heap position -> slot *)
  mutable hsize : int;  (* LRU-2: re-referenced pages in [heap] *)
  mutable head : int;  (* oldest slot on the ring, -1 when it is empty *)
  mutable size : int;
  mutable used : int;  (* slots handed out at least once *)
  mutable free : int;  (* free-slot list, -1 when empty *)
  mutable clock : int;
}

let initial_slots = 64

let create kind =
  let n = initial_slots in
  {
    kind;
    index = Array.make (2 * n) (-1);
    shift = 63 - 7;
    keys = Array.make n 0;
    prev = Array.make n (-1);
    next = Array.make n (-1);
    refbit = Array.make n false;
    t1 = Array.make n 0;
    t2 = Array.make n 0;
    pos = Array.make n 0;
    heap = Array.make n 0;
    hsize = 0;
    head = -1;
    size = 0;
    used = 0;
    free = -1;
    clock = 0;
  }

(* --- Index ---------------------------------------------------------- *)

(* Multiplicative hashing on the product's top bits, which depend on
   every bit of the key: a page's table id sits in its high bits. *)
let home t key = (key * 0x2545F4914F6CDD1D) lsr t.shift

(* The index position holding [key], or the empty one ending its run. *)
let rec probe t key i =
  let s = t.index.(i) in
  if s < 0 || t.keys.(s) = key then i
  else probe t key ((i + 1) land (Array.length t.index - 1))

let find t key = t.index.(probe t key (home t key))

(* Backward-shift deletion: empty position [hole], then pull later
   entries of the run back into it, so no probe ever crosses a gap. An
   entry at [j] may move into the hole unless its home lies cyclically in
   (hole, j]. *)
let rec unindex t hole j =
  let mask = Array.length t.index - 1 in
  let j = (j + 1) land mask in
  let s = t.index.(j) in
  if s < 0 then t.index.(hole) <- -1
  else if (j - home t t.keys.(s)) land mask >= (j - hole) land mask then begin
    t.index.(hole) <- s;
    unindex t j j
  end
  else unindex t hole j

(* --- Slots ---------------------------------------------------------- *)

let extend xs fill =
  let ys = Array.make (2 * Array.length xs) fill in
  Array.blit xs 0 ys 0 (Array.length xs);
  ys

(* Doubles every column and rebuilds the index at twice the slot count.
   Runs only when the free list is empty, so every used slot is
   resident. *)
let grow t =
  t.keys <- extend t.keys 0;
  t.prev <- extend t.prev (-1);
  t.next <- extend t.next (-1);
  t.refbit <- extend t.refbit false;
  t.t1 <- extend t.t1 0;
  t.t2 <- extend t.t2 0;
  t.pos <- extend t.pos 0;
  t.heap <- extend t.heap 0;
  t.index <- Array.make (2 * Array.length t.index) (-1);
  t.shift <- t.shift - 1;
  for s = 0 to t.used - 1 do
    let key = t.keys.(s) in
    t.index.(probe t key (home t key)) <- s
  done

let alloc_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- t.next.(s);
    s
  end
  else begin
    if t.used = Array.length t.keys then grow t;
    t.used <- t.used + 1;
    t.used - 1
  end

(* Drops [s]'s key from the index and returns the slot to the free list. *)
let release_slot t s =
  let i = probe t t.keys.(s) (home t t.keys.(s)) in
  unindex t i i;
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

(* --- The ring: LRU, CLOCK, and LRU-2's once-touched pages ----------- *)

(* [s] becomes the newest entry, just behind [head]. *)
let link_tail t s =
  let h = t.head in
  if h < 0 then begin
    t.prev.(s) <- s;
    t.next.(s) <- s;
    t.head <- s
  end
  else begin
    let tail = t.prev.(h) in
    t.prev.(s) <- tail;
    t.next.(s) <- h;
    t.next.(tail) <- s;
    t.prev.(h) <- s
  end

let unlink t s =
  let n = t.next.(s) in
  if n = s then t.head <- -1
  else begin
    let p = t.prev.(s) in
    t.next.(p) <- n;
    t.prev.(n) <- p;
    if t.head = s then t.head <- n
  end

(* CLOCK's hand: a page with its reference bit set loses the bit and goes
   from head to tail, which in a ring is one step of [head]. *)
let rec clock_victim t =
  let s = t.head in
  if t.refbit.(s) then begin
    t.refbit.(s) <- false;
    t.head <- t.next.(s);
    clock_victim t
  end
  else s

(* --- LRU-2: the heap of re-referenced pages -------------------------- *)

(* The order of the polymorphic [compare] on (t2, t1, page) that the
   policy has always used. Each insert or touch stamps a fresh [t1], so
   live entries never tie on it and the page never decides. *)
let before t a b =
  let a2 = t.t2.(a) and b2 = t.t2.(b) in
  a2 < b2 || (a2 = b2 && t.t1.(a) < t.t1.(b))

let place t s i =
  t.heap.(i) <- s;
  t.pos.(s) <- i

(* Hole-based sifts: [s] stays in hand while the entries it passes shift
   into the hole, and is stored once. *)
let rec sift_up t s i =
  if i = 0 then place t s 0
  else begin
    let parent = (i - 1) / 2 in
    let p = t.heap.(parent) in
    if before t s p then begin
      place t p i;
      sift_up t s parent
    end
    else place t s i
  end

let rec sift_down t n s i =
  let left = (2 * i) + 1 in
  if left >= n then place t s i
  else begin
    let right = left + 1 in
    let child =
      if right < n && before t t.heap.(right) t.heap.(left) then right
      else left
    in
    let c = t.heap.(child) in
    if before t c s then begin
      place t c i;
      sift_down t n s child
    end
    else place t s i
  end

(* --- Operations ----------------------------------------------------- *)

let mem t key = find t key >= 0

let insert t key =
  if mem t key then invalid_arg "Policy.insert: page already resident";
  let s = alloc_slot t in
  t.index.(probe t key (home t key)) <- s;
  t.keys.(s) <- key;
  t.size <- t.size + 1;
  match t.kind with
  | Lru -> link_tail t s
  | Clock ->
      t.refbit.(s) <- false;
      link_tail t s
  | Lru2 ->
      t.clock <- t.clock + 1;
      t.t1.(s) <- t.clock;
      t.t2.(s) <- -1;
      link_tail t s

let touch t key =
  let s = find t key in
  if s < 0 then false
  else begin
    (match t.kind with
    | Lru ->
        unlink t s;
        link_tail t s
    | Clock -> t.refbit.(s) <- true
    | Lru2 ->
        t.clock <- t.clock + 1;
        let once = t.t2.(s) < 0 in
        t.t2.(s) <- t.t1.(s);
        t.t1.(s) <- t.clock;
        if once then begin
          unlink t s;
          t.hsize <- t.hsize + 1;
          sift_up t s (t.hsize - 1)
        end
        else sift_down t t.hsize s t.pos.(s));
    true
  end

let evict t =
  if t.size = 0 then -1
  else begin
    let s =
      match t.kind with
      | Clock ->
          let s = clock_victim t in
          unlink t s;
          s
      | Lru2 when t.head < 0 ->
          let s = t.heap.(0) in
          t.hsize <- t.hsize - 1;
          if t.hsize > 0 then sift_down t t.hsize t.heap.(t.hsize) 0;
          s
      | Lru | Lru2 ->
          let s = t.head in
          unlink t s;
          s
    in
    let key = t.keys.(s) in
    release_slot t s;
    key
  end

let size t = t.size
let kind t = t.kind
