(* Splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014). Small state, good statistical quality, and the
   golden-gamma split operation gives independent child streams. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }
let copy t = { state = t.state }

let int t n =
  assert (n > 0);
  (* Keep 62 bits so the value stays nonnegative in a 63-bit native int;
     modulo bias is negligible for the ranges used in the simulator. *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  bits mod n

(* 53 random mantissa bits scaled into [0, 1). *)
let unit_float t =
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let float t x =
  assert (x > 0.);
  unit_float t *. x

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let weighted_choice t items =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 items in
  assert (total > 0.);
  let x = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.weighted_choice: empty"
    | [ (_, v) ] -> v
    | (w, v) :: rest ->
        let acc = acc +. w in
        if x < acc then v else pick acc rest
  in
  pick 0.0 items

(* Fisher-Yates, in place. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t a k =
  assert (k <= Array.length a);
  let b = Array.copy a in
  shuffle t b;
  Array.sub b 0 k
