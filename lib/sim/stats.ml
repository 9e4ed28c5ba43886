module Online = struct
  (* The floats sit in an all-float record, which OCaml stores flat, so
     [add] updates them in place; as mutable fields of a record that
     also holds [count], each update would box a fresh float. *)
  type acc = {
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  type t = { mutable count : int; acc : acc }

  let create () =
    {
      count = 0;
      acc =
        { mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. };
    }

  let add t x =
    let a = t.acc in
    t.count <- t.count + 1;
    a.total <- a.total +. x;
    let delta = x -. a.mean in
    a.mean <- a.mean +. (delta /. float_of_int t.count);
    a.m2 <- a.m2 +. (delta *. (x -. a.mean));
    if x < a.min then a.min <- x;
    if x > a.max then a.max <- x

  let count t = t.count
  let mean t = t.acc.mean
  let variance t =
    if t.count < 2 then 0. else t.acc.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
  let min t = t.acc.min
  let max t = t.acc.max
  let total t = t.acc.total

  let clear t =
    let a = t.acc in
    t.count <- 0;
    a.mean <- 0.;
    a.m2 <- 0.;
    a.min <- infinity;
    a.max <- neg_infinity;
    a.total <- 0.

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "n=0"
    else
      Format.fprintf ppf "n=%d mean=%.3g sd=%.3g min=%.3g max=%.3g" t.count
        t.acc.mean (stddev t) t.acc.min t.acc.max
end

let percentile values q =
  assert (Array.length values > 0 && q >= 0. && q <= 1.);
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then sorted.(n - 1)
  else begin
    let frac = pos -. float_of_int i in
    sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let mean values =
  assert (Array.length values > 0);
  Array.fold_left ( +. ) 0. values /. float_of_int (Array.length values)
