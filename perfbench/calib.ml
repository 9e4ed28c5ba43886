(* A wall clock normalised to a reference machine speed.

   On a shared machine the speed of the same code drifts by a fifth
   within minutes, and every wall figure drifts with it. While [start]ed,
   a timer interrupts the process every 10 ms and runs [kernel], a fixed
   slice of integer and float work over a buffer outside the OCaml heap.
   The slices share every moment of contention with the code being
   measured, so their mean duration over an interval tells how fast the
   machine ran during it. [seconds] turns an interval into the time it
   would have taken at the speed where one slice lasts
   [reference_slice_s]: its own wall time net of the slices, scaled by
   reference / observed slice time.

   A slice allocates nothing, so it can never run a minor collection or
   a major slice: all of the collector's work stays in the measured
   code's time, and the slices do not move its collections. The clock
   is read through an unboxed primitive for the same reason. Each slice
   checks this with [Gc.minor_words], and [allocation_free] turns false
   if one ever allocated. The kernel touches no simulation state, so the
   simulation is event-for-event the same with the timer off; the traced
   run checks that. *)

external now : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

(* The unit of the normalised figures: about the shortest slice seen on
   a 2-core x86 server at 2.1 GHz, where busy neighbours stretched the
   median slice to 0.5-0.75 ms. *)
let reference_slice_s = 0.00045

(* 1 MiB, more than a core's private cache, so a slice also feels
   contention for the shared cache and memory. *)
let buffer = Bigarray.(Array1.create int c_layout (1 lsl 17))
let () = Bigarray.Array1.fill buffer 0

let kernel () =
  let mask = Bigarray.Array1.dim buffer - 1 in
  let acc = ref 0 and x = ref 1. in
  for i = 1 to 100_000 do
    let j = i * 40_503 land mask in
    let v = Bigarray.Array1.unsafe_get buffer j + i in
    Bigarray.Array1.unsafe_set buffer j v;
    acc := !acc lxor v;
    x := (!x *. 0.999_999) +. 1e-6
  done;
  !acc + int_of_float !x

let slices = ref 0

(* Seconds spent in slices; a float array cell, so adding to it does not
   box. *)
let slice_time = [| 0. |]
let clean = ref true

let on_tick _ =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = now () in
  if Gc.minor_words () <> w0 then clean := false;
  slice_time.(0) <- slice_time.(0) +. (t1 -. t0);
  incr slices

let allocation_free () = !clean

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = interval; it_value = interval })

let start () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle on_tick);
  set_timer 0.01

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigalrm Sys.Signal_default

type stamp = { wall : float; cal : float; n : int; alloc : float }

let stamp () =
  { wall = now (); cal = slice_time.(0); n = !slices; alloc = Gc.allocated_bytes () }

(* Wall seconds from [a] to [b] that were not spent in slices. *)
let raw a b = b.wall -. a.wall -. (b.cal -. a.cal)

(* Reference slice time over observed slice time from [a] to [b]; 1 when
   too few slices ran to tell. *)
let speed a b =
  let n = b.n - a.n in
  if n < 10 then 1. else reference_slice_s /. ((b.cal -. a.cal) /. float_of_int n)

let seconds a b = raw a b *. speed a b

(* Bytes the measured code allocated from [a] to [b]. *)
let allocated a b = b.alloc -. a.alloc
