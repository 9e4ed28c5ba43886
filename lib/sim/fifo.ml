(* The capacity is a power of two, so a slot index wraps with a mask. *)
type 'a t = {
  mutable slots : 'a array;
  mutable head : int;
  mutable length : int;
  dummy : 'a;
}

let create ~dummy () = { slots = Array.make 16 dummy; head = 0; length = 0; dummy }
let is_empty t = t.length = 0
let length t = t.length

let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (2 * cap) t.dummy in
  for i = 0 to t.length - 1 do
    slots.(i) <- t.slots.((t.head + i) land (cap - 1))
  done;
  t.slots <- slots;
  t.head <- 0

let push t x =
  if t.length = Array.length t.slots then grow t;
  t.slots.((t.head + t.length) land (Array.length t.slots - 1)) <- x;
  t.length <- t.length + 1

let pop t =
  if t.length = 0 then invalid_arg "Fifo.pop: empty";
  let x = t.slots.(t.head) in
  t.slots.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.slots - 1);
  t.length <- t.length - 1;
  x
