type t = {
  mname : string;
  meng : Sim.Engine.t;
  mtrace : Obs.Trace.t;
  sem : Sim.Resource.Sem.t;
  mtimeout : float;
  mutable nreleases : int;
}

let create eng ?(trace = Obs.Trace.null) ~name ~slots ~timeout () =
  if slots < 1 then invalid_arg "Monitor.create: slots must be >= 1";
  if timeout <= 0. then invalid_arg "Monitor.create: timeout must be > 0";
  { mname = name; meng = eng; mtrace = trace;
    sem = Sim.Resource.Sem.create eng ~name ~capacity:slots ();
    mtimeout = timeout; nreleases = 0 }

let emit t ~qid phase ~priority =
  if Obs.Trace.enabled t.mtrace then
    Obs.Trace.emit t.mtrace ~time:(Sim.Engine.now t.meng) ~qid
      (Obs.Event.Gateway { gate = t.mname; phase; priority })

let acquire t ?(priority = 0) ?(qid = "") () =
  emit t ~qid Obs.Event.Wait ~priority;
  match Sim.Resource.Sem.acquire t.sem ~priority ~timeout:t.mtimeout ~n:1 () with
  | Sim.Resource.Acquired ->
      emit t ~qid Obs.Event.Acquired ~priority;
      Ok ()
  | Sim.Resource.Timed_out ->
      emit t ~qid Obs.Event.Timeout ~priority;
      Error `Timeout

let release ?(qid = "") t =
  t.nreleases <- t.nreleases + 1;
  emit t ~qid Obs.Event.Release ~priority:0;
  Sim.Resource.Sem.release t.sem ~n:1
let set_slots t n = Sim.Resource.Sem.set_capacity t.sem n
let set_discipline t d = Sim.Resource.Sem.set_discipline t.sem d
let discipline t = Sim.Resource.Sem.discipline t.sem
let name t = t.mname
let slots t = Sim.Resource.Sem.capacity t.sem
let in_use t = Sim.Resource.Sem.in_use t.sem
let queued t = Sim.Resource.Sem.queued t.sem
let acquires t = Sim.Resource.Sem.grants t.sem
let releases t = t.nreleases
let timeouts t = Sim.Resource.Sem.timeouts t.sem
let wait_stats t = Sim.Resource.Sem.wait_stats t.sem
