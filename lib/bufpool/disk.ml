(* A transfer parked behind the one in service. Waiters are pooled: each
   serves one queued transfer after another. *)
type waiter = {
  mutable bytes : int;
  enqueued_at : Sim.Engine.fcell;  (* flat: stored without boxing *)
  mutable resume : unit -> unit;
}

type t = {
  eng : Sim.Engine.t;
  mutable busy : bool;  (* a transfer is in service *)
  waiting : waiter Sim.Fifo.t;  (* empty while the array idles *)
  spare : waiter Sim.Fifo.t;  (* waiters between queued transfers *)
  mutable staged : int;  (* the parking transfer's [bytes] *)
  mutable parker : Sim.Engine.parker;
  mutable serving : waiter;  (* the parked transfer in service, if any *)
  wait_stats : Sim.Stats.Online.t;
  delay : Sim.Engine.fcell;  (* staging cell for [Engine.after] *)
  clock : Sim.Engine.fcell;  (* [Engine.now], read without boxing *)
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

let idle = { bytes = 0; enqueued_at = { fc = 0. }; resume = ignore }

let set_degradation t ~throughput_factor ~extra_seek_s =
  if throughput_factor <= 0. || throughput_factor > 1. then
    invalid_arg "Disk.set_degradation: throughput_factor not in (0,1]";
  if extra_seek_s < 0. then invalid_arg "Disk.set_degradation: extra_seek_s";
  t.throughput_factor <- throughput_factor;
  t.extra_seek_s <- extra_seek_s

let clear_degradation t =
  t.throughput_factor <- 1.;
  t.extra_seek_s <- 0.

let[@inline] service_time t ~bytes =
  t.seek_s +. t.extra_seek_s
  +. (float_of_int bytes /. (t.throughput *. t.throughput_factor))

(* The array falls free: the head of the queue gets it, adding its wait
   and reading its service time now, or it idles. *)
let release t =
  if Sim.Fifo.is_empty t.waiting then t.busy <- false
  else begin
    let w = Sim.Fifo.pop t.waiting in
    Sim.Engine.now_into t.eng t.clock;
    Sim.Stats.Online.add t.wait_stats (t.clock.fc -. w.enqueued_at.fc);
    t.serving <- w;
    t.delay.fc <- service_time t ~bytes:w.bytes;
    Sim.Engine.after t.eng t.delay t.complete
  end

let complete t () =
  let w = t.serving in
  t.serving <- idle;
  release t;
  Sim.Fifo.push t.spare w;
  w.resume ()

(* [transfer]'s park: a spare waiter (or a new one) takes the staged
   size and the time, and queues. *)
let enqueue t resume =
  let w =
    if Sim.Fifo.is_empty t.spare then
      { bytes = 0; enqueued_at = { fc = 0. }; resume }
    else Sim.Fifo.pop t.spare
  in
  w.bytes <- t.staged;
  Sim.Engine.now_into t.eng w.enqueued_at;
  w.resume <- resume;
  Sim.Fifo.push t.waiting w

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
      spare = Sim.Fifo.create ~dummy:idle ();
      staged = 0;
      parker = Sim.Engine.parker ignore;
      serving = idle;
      wait_stats = Sim.Stats.Online.create ();
      delay = { fc = 0. };
      clock = { fc = 0. };
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
  t.parker <- Sim.Engine.parker (enqueue t);
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
    else begin
      t.staged <- bytes;
      Sim.Engine.park_with t.parker
    end

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
