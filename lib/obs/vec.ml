(* Growable vector used by the trace analyzers in place of list-cons
   accumulation. Pushes append in arrival order, so [to_list] yields the
   same sequence the old [List.rev !acc] idiom produced, with one doubling
   array instead of a cons cell per element. The backing array is
   allocated on the first push so an empty vector (the common case for
   violation collectors) costs two words. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  hint : int;  (* requested initial capacity, applied at first push *)
}

let create ?(capacity = 0) () = { data = [||]; len = 0; hint = capacity }

let push t x =
  if t.len = Array.length t.data then begin
    let cap' = if t.len = 0 then Stdlib.max 16 t.hint else 2 * t.len in
    let data' = Array.make cap' x in
    Array.blit t.data 0 data' 0 t.len;
    t.data <- data'
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

