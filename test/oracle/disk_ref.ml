type t = {
  eng : Sim.Engine.t;
  spindles : Sim.Resource.Sem.t;
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

let create eng ~spindles ~seek_s ~throughput_bytes_per_s =
  if spindles < 1 then invalid_arg "Disk.create: spindles";
  if throughput_bytes_per_s <= 0. then invalid_arg "Disk.create: throughput";
  (* RAID-0 stripes every transfer across all spindles: model the array as
     one server with the aggregate bandwidth, so a lone stream gets full
     array speed and concurrent streams share it by queueing. *)
  {
    eng;
    spindles = Sim.Resource.Sem.create eng ~capacity:1 ();
    seek_s;
    throughput = float_of_int spindles *. throughput_bytes_per_s;
    reads = 0;
    bytes_read = 0;
    bytes_written = 0;
    extra_seek_s = 0.;
    throughput_factor = 1.;
  }

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

let transfer t ~bytes =
  if bytes < 0 then invalid_arg "Disk: negative transfer";
  if bytes > 0 then begin
    (match Sim.Resource.Sem.acquire t.spindles ~n:1 () with
    | Sim.Resource.Acquired -> ()
    | Sim.Resource.Timed_out -> assert false (* no timeout requested *));
    Sim.Engine.sleep (service_time t ~bytes);
    Sim.Resource.Sem.release t.spindles ~n:1
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
let queue_wait t = Sim.Resource.Sem.wait_stats t.spindles
