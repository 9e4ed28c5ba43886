type t = {
  name : string;
  mutable times : float array;
  mutable values : float array;
  mutable size : int;
}

let create ?(name = "") ?(capacity = 0) () =
  let capacity = max 0 capacity in
  {
    name;
    times = Array.make capacity 0.;
    values = Array.make capacity 0.;
    size = 0;
  }

let name t = t.name

let grow t =
  let capacity = Array.length t.times in
  if t.size = capacity then begin
    let capacity' = max 64 (2 * capacity) in
    let times' = Array.make capacity' 0. and values' = Array.make capacity' 0. in
    Array.blit t.times 0 times' 0 t.size;
    Array.blit t.values 0 values' 0 t.size;
    t.times <- times';
    t.values <- values'
  end

let add t ~time v =
  if t.size > 0 && time < t.times.(t.size - 1) then
    invalid_arg "Series.add: time went backwards";
  grow t;
  t.times.(t.size) <- time;
  t.values.(t.size) <- v;
  t.size <- t.size + 1

let length t = t.size
let is_empty t = t.size = 0

let nth t i =
  if i < 0 || i >= t.size then invalid_arg "Series.nth";
  (t.times.(i), t.values.(i))

let last t = if t.size = 0 then None else Some (nth t (t.size - 1))

let to_arrays t = (Array.sub t.times 0 t.size, Array.sub t.values 0 t.size)

let bucket_sum t ~start ~stop ~width =
  assert (width > 0. && stop >= start);
  let n = int_of_float (ceil ((stop -. start) /. width)) in
  let acc = Array.make n 0. in
  for i = 0 to t.size - 1 do
    let time = t.times.(i) in
    if time >= start && time < stop then begin
      let slice = int_of_float ((time -. start) /. width) in
      let slice = min slice (n - 1) in
      acc.(slice) <- acc.(slice) +. t.values.(i)
    end
  done;
  Array.mapi (fun i a -> (start +. (float_of_int i *. width), a)) acc

let values_between t ~start ~stop =
  (* Count-then-fill: two passes over unboxed float arrays cost less
     than a boxing cons per matching value. *)
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    let time = t.times.(i) in
    if time >= start && time < stop then incr n
  done;
  let out = Array.make !n 0. in
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let time = t.times.(i) in
    if time >= start && time < stop then begin
      out.(!j) <- t.values.(i);
      incr j
    end
  done;
  out
