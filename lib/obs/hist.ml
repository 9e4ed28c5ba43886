type t = {
  sub_bits : int;
  sub : int; (* 2^sub_bits: values below this index directly *)
  half : int; (* sub/2: linear sub-buckets per power of two *)
  counts : int array;
  mutable total : int;
  mutable vmin : int;
  mutable vmax : int;
  mutable sum : float;
}

let create ?(sub_bits = 7) () =
  let sub_bits = Stdlib.min 14 (Stdlib.max 2 sub_bits) in
  let sub = 1 lsl sub_bits in
  let half = sub / 2 in
  (* Values occupy at most 62 bits; each power of two above [sub] adds
     [half] buckets. *)
  let nbuckets = sub + (((62 - sub_bits) + 1) * half) in
  {
    sub_bits;
    sub;
    half;
    counts = Array.make nbuckets 0;
    total = 0;
    vmin = Stdlib.max_int;
    vmax = 0;
    sum = 0.;
  }

(* Index of the most significant set bit of [v > 0]. *)
let msb v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index t v =
  if v < t.sub then v
  else
    let shift = msb v - t.sub_bits + 1 in
    t.sub + ((shift - 1) * t.half) + ((v lsr shift) - t.half)

(* Highest value mapping to bucket [i] — the reported quantile boundary. *)
let bucket_high t i =
  if i < t.sub then i
  else
    let shift = ((i - t.sub) / t.half) + 1 in
    let off = ((i - t.sub) mod t.half) + t.half in
    (((off + 1) lsl shift) - 1 : int)

let add t v =
  let v = Stdlib.max 0 v in
  t.counts.(index t v) <- t.counts.(index t v) + 1;
  t.total <- t.total + 1;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  t.sum <- t.sum +. float_of_int v

let count t = t.total
let min t = if t.total = 0 then 0 else t.vmin
let max t = t.vmax
let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total

let percentile t q =
  if t.total = 0 then 0
  else if q <= 0. then min t
  else if q >= 100. then t.vmax
  else
    let rank = q /. 100. *. float_of_int t.total in
    let rec scan i seen =
      if i >= Array.length t.counts then t.vmax
      else
        let seen = seen + t.counts.(i) in
        if float_of_int seen >= rank then Stdlib.min (bucket_high t i) t.vmax
        else scan (i + 1) seen
    in
    scan 0 0

let percentile_ms t q = float_of_int (percentile t q) /. 1000.

let pp_summary fmt t =
  if t.total = 0 then Format.fprintf fmt "empty"
  else
    Format.fprintf fmt "n=%d mean=%.1f p50=%d p90=%d p99=%d max=%d" t.total
      (mean t) (percentile t 50.) (percentile t 90.) (percentile t 99.)
      t.vmax
