module Online = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

  let add t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = t.mean
  let variance t = if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
  let total t = t.total

  let clear t =
    t.count <- 0;
    t.mean <- 0.;
    t.m2 <- 0.;
    t.min <- infinity;
    t.max <- neg_infinity;
    t.total <- 0.

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "n=0"
    else
      Format.fprintf ppf "n=%d mean=%.3g sd=%.3g min=%.3g max=%.3g" t.count
        t.mean (stddev t) t.min t.max
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
