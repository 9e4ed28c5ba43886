(* A transfer parked behind the one in service. *)
type waiter = { bytes : int; enqueued_at : float; resume : unit -> unit }

type t = {
  eng : Sim.Engine.t;
  mutable busy : bool;  (* a transfer is in service *)
  waiting : waiter Sim.Fifo.t;  (* empty while the array idles *)
  mutable serving : waiter;  (* the parked transfer in service, if any *)
  wait_stats : Sim.Stats.Online.t;
  delay : Sim.Engine.fcell;  (* staging cell for [Engine.after] *)
  mutable complete : unit -> unit;  (* [serving]'s completion event *)
  seek_s : float;
  throughput : float;
  mutable reads : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  (* Fault injection: a degraded array pays extra latency per transfer and
     delivers a fraction of its nominal bandwidth. *)
  mutable extra_seek_s : float;
  mutable throughput_factor : float;
}

let idle = { bytes = 0; enqueued_at = 0.; resume = ignore }

let set_degradation t ~throughput_factor ~extra_seek_s =
  if throughput_factor <= 0. || throughput_factor > 1. then
    invalid_arg "Disk.set_degradation: throughput_factor not in (0,1]";
  if extra_seek_s < 0. then invalid_arg "Disk.set_degradation: extra_seek_s";
  t.throughput_factor <- throughput_factor;
  t.extra_seek_s <- extra_seek_s

let clear_degradation t =
  t.throughput_factor <- 1.;
  t.extra_seek_s <- 0.

let service_time t ~bytes =
  t.seek_s +. t.extra_seek_s
  +. (float_of_int bytes /. (t.throughput *. t.throughput_factor))

(* The array falls free: the head of the queue gets it, adding its wait
   and reading its service time now, or it idles. *)
let release t =
  if Sim.Fifo.is_empty t.waiting then t.busy <- false
  else begin
    let w = Sim.Fifo.pop t.waiting in
    Sim.Stats.Online.add t.wait_stats (Sim.Engine.now t.eng -. w.enqueued_at);
    t.serving <- w;
    t.delay.fc <- service_time t ~bytes:w.bytes;
    Sim.Engine.after t.eng t.delay t.complete
  end

let complete t () =
  let w = t.serving in
  t.serving <- idle;
  release t;
  w.resume ()

let create eng ~spindles ~seek_s ~throughput_bytes_per_s =
  if spindles < 1 then invalid_arg "Disk.create: spindles";
  if throughput_bytes_per_s <= 0. then invalid_arg "Disk.create: throughput";
  (* RAID-0 stripes every transfer across all spindles: model the array as
     one server with the aggregate bandwidth, so a lone stream gets full
     array speed and concurrent streams share it by queueing. *)
  let t =
    {
      eng;
      busy = false;
      waiting = Sim.Fifo.create ~dummy:idle ();
      serving = idle;
      wait_stats = Sim.Stats.Online.create ();
      delay = { fc = 0. };
      complete = ignore;
      seek_s;
      throughput = float_of_int spindles *. throughput_bytes_per_s;
      reads = 0;
      bytes_read = 0;
      bytes_written = 0;
      extra_seek_s = 0.;
      throughput_factor = 1.;
    }
  in
  t.complete <- complete t;
  t

let transfer t ~bytes =
  if bytes < 0 then invalid_arg "Disk: negative transfer";
  if bytes > 0 then
    if not t.busy then begin
      t.busy <- true;
      Sim.Stats.Online.add t.wait_stats 0.;
      Sim.Engine.sleep (service_time t ~bytes);
      release t
    end
    else
      Sim.Engine.park (fun resume ->
          Sim.Fifo.push t.waiting
            { bytes; enqueued_at = Sim.Engine.now t.eng; resume })

let read t ~bytes =
  transfer t ~bytes;
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + bytes

let write t ~bytes =
  transfer t ~bytes;
  t.bytes_written <- t.bytes_written + bytes

let reads t = t.reads
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let queue_wait t = t.wait_stats
