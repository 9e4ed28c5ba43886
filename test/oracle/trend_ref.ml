type t = {
  window : int;
  times : float array;
  values : float array;
  mutable size : int; (* number of valid samples *)
  mutable next : int; (* ring index of next write *)
}

let create ~window () =
  if window < 2 then invalid_arg "Trend.create: window must be >= 2";
  { window; times = Array.make window 0.; values = Array.make window 0.; size = 0; next = 0 }

let observe t ~time v =
  if t.size > 0 then begin
    let last_idx = (t.next - 1 + t.window) mod t.window in
    if time < t.times.(last_idx) then invalid_arg "Trend.observe: time went backwards"
  end;
  t.times.(t.next) <- time;
  t.values.(t.next) <- v;
  t.next <- (t.next + 1) mod t.window;
  if t.size < t.window then t.size <- t.size + 1

let samples t = t.size

let fold t ~init ~f =
  (* Oldest-to-newest iteration over the ring. *)
  let start = if t.size < t.window then 0 else t.next in
  let acc = ref init in
  for i = 0 to t.size - 1 do
    let idx = (start + i) mod t.window in
    acc := f !acc t.times.(idx) t.values.(idx)
  done;
  !acc

let last t =
  if t.size = 0 then None
  else begin
    let last_idx = (t.next - 1 + t.window) mod t.window in
    Some t.values.(last_idx)
  end

let mean t =
  if t.size = 0 then None
  else begin
    let sum = fold t ~init:0. ~f:(fun acc _ v -> acc +. v) in
    Some (sum /. float_of_int t.size)
  end

let slope t =
  if t.size < 2 then None
  else begin
    let n = float_of_int t.size in
    let sx, sy, sxx, sxy =
      fold t ~init:(0., 0., 0., 0.) ~f:(fun (sx, sy, sxx, sxy) x y ->
          (sx +. x, sy +. y, sxx +. (x *. x), sxy +. (x *. y)))
    in
    let denom = (n *. sxx) -. (sx *. sx) in
    if Float.abs denom < 1e-12 then None
    else Some (((n *. sxy) -. (sx *. sy)) /. denom)
  end

let predict t ~horizon =
  match last t with
  | None -> None
  | Some v -> (
      match slope t with
      | None -> Some (Float.max 0. v)
      | Some s -> Some (Float.max 0. (v +. (s *. horizon))))
