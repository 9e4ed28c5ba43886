type t = int

let empty = 0
let is_empty t = t = 0

let singleton i =
  if i < 0 || i > 61 then invalid_arg "Relset: index out of range";
  1 lsl i

let mem i t = t land (1 lsl i) <> 0
let add i t = t lor singleton i
let union = ( lor )
let diff a b = a land lnot b
let subset a b = a land b = a
let equal = Int.equal

let cardinal t =
  let rec loop t acc = if t = 0 then acc else loop (t land (t - 1)) (acc + 1) in
  loop t 0

let full n =
  if n < 0 || n > 62 then invalid_arg "Relset.full";
  if n = 0 then 0 else (1 lsl n) - 1

(* Count trailing zeros of a nonzero int in constant time: isolate the
   lowest set bit, then locate it with six mask-and-shift steps (a
   branch-free-depth binary search — the de Bruijn multiply trick needs a
   full 64-bit multiply, which OCaml's 63-bit native ints don't give).
   Replaces the old shift-while loop, which was O(bit index) and made
   [fold]/[min_elt] quadratic-ish on sets with high members. *)
let ctz t =
  let x = ref (t land -t) and n = ref 0 in
  if !x land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    x := !x lsr 32
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let fold f t init =
  let rec loop t acc =
    if t = 0 then acc
    else begin
      let low = t land -t in
      loop (t lxor low) (f (ctz low) acc)
    end
  in
  loop t init

let members t = List.rev (fold (fun i acc -> i :: acc) t [])
let iter f t = fold (fun i () -> f i) t ()

let min_elt t =
  if t = 0 then invalid_arg "Relset.min_elt: empty";
  ctz t

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (members t)))
