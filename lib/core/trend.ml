type t = {
  window : int;
  times : float array;
  values : float array;
  mutable size : int; (* number of valid samples *)
  mutable next : int; (* ring index of next write *)
  mutable line : bool; (* whether the last [fit] found a line *)
}

let create ~window () =
  if window < 2 then invalid_arg "Trend.create: window must be >= 2";
  {
    window;
    times = Array.make window 0.;
    values = Array.make window 0.;
    size = 0;
    next = 0;
    line = false;
  }

(* Inlined, as [forecast] below, so that [observe_bytes] boxes no float. *)
let[@inline] observe t ~time v =
  if t.size > 0 then begin
    let last_idx = (t.next - 1 + t.window) mod t.window in
    if time < t.times.(last_idx) then invalid_arg "Trend.observe: time went backwards"
  end;
  t.times.(t.next) <- time;
  t.values.(t.next) <- v;
  t.next <- (t.next + 1) mod t.window;
  if t.size < t.window then t.size <- t.size + 1

let samples t = t.size

(* Ring index of the oldest sample. *)
let oldest t = if t.size < t.window then 0 else t.next

let[@inline] last_value t = t.values.((t.next - 1 + t.window) mod t.window)

let last t = if t.size = 0 then None else Some (last_value t)

let mean t =
  if t.size = 0 then None
  else begin
    let start = oldest t and sum = ref 0. in
    for i = 0 to t.size - 1 do
      sum := !sum +. t.values.((start + i) mod t.window)
    done;
    Some (!sum /. float_of_int t.size)
  end

(* Least-squares slope over the window, summed oldest to newest. Sets
   [t.line] to [false] (and returns [0.]) with fewer than two samples or a
   degenerate time spread. The sums are local float refs, which stay
   unboxed, and the function is inlined so that its result is not boxed
   either. *)
let[@inline] fit t =
  if t.size < 2 then begin
    t.line <- false;
    0.
  end
  else begin
    let n = float_of_int t.size and start = oldest t in
    let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
    for i = 0 to t.size - 1 do
      let idx = (start + i) mod t.window in
      let x = t.times.(idx) and y = t.values.(idx) in
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y)
    done;
    let denom = (n *. !sxx) -. (!sx *. !sx) in
    if Float.abs denom < 1e-12 then begin
      t.line <- false;
      0.
    end
    else begin
      t.line <- true;
      ((n *. !sxy) -. (!sx *. !sy)) /. denom
    end
  end

let slope t =
  let s = fit t in
  if t.line then Some s else None

(* [Float.max 0. v], written out so that no float crosses a call. *)
let[@inline] clamp v = if v > 0. || Float.is_nan v then v else 0.

(* [predict]'s value on a window with at least one sample. *)
let[@inline] forecast t ~horizon =
  let v = last_value t in
  let s = fit t in
  if t.line then clamp (v +. (s *. horizon)) else clamp v

let predict t ~horizon =
  if t.size = 0 then None else Some (forecast t ~horizon)

let observe_bytes t ~(time : Sim.Engine.fcell) ~horizon demand =
  observe t ~time:time.fc (float_of_int demand);
  Int.max demand (int_of_float (forecast t ~horizon))
