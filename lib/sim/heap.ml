type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
  hint : int; (* requested initial capacity, applied at the first add *)
}

let create ?(capacity = 0) ~cmp () =
  if capacity < 0 then invalid_arg "Heap.create: negative capacity";
  { cmp; data = [||]; size = 0; hint = capacity }

let size t = t.size
let is_empty t = t.size = 0

(* The element array can only be materialised once we have a value to
   fill it with, so the capacity hint takes effect at the first [add]. *)
let grow t x =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let capacity' = max t.hint (max 16 (2 * capacity)) in
    let data' = Array.make capacity' x in
    Array.blit t.data 0 data' 0 t.size;
    t.data <- data'
  end

(* Hole-based sifts: instead of swapping the moving element at every
   level (two writes per step), keep it in hand, shift the displaced
   entries into the hole, and store it once at its final slot. *)

let sift_up t i =
  let x = t.data.(i) in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.cmp x t.data.(parent) < 0 then begin
      t.data.(!i) <- t.data.(parent);
      i := parent
    end
    else moving := false
  done;
  t.data.(!i) <- x

let sift_down t i =
  let x = t.data.(i) in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let left = (2 * !i) + 1 in
    if left >= t.size then moving := false
    else begin
      let right = left + 1 in
      let child =
        if right < t.size && t.cmp t.data.(right) t.data.(left) < 0 then right
        else left
      in
      if t.cmp t.data.(child) x < 0 then begin
        t.data.(!i) <- t.data.(child);
        i := child
      end
      else moving := false
    end
  done;
  t.data.(!i) <- x

let add t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek_exn t =
  if t.size = 0 then invalid_arg "Heap.peek_exn: empty";
  t.data.(0)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty";
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  (* Park the popped element just past the live region: a generic heap has
     no dummy element to overwrite the slot with, and the slot is
     reclaimed by the next [add] anyway. *)
  t.data.(t.size) <- top;
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)
