type t = {
  eng : Sim.Engine.t;
  gtrace : Obs.Trace.t;
  sem : Sim.Resource.Sem.t;
  clerk : Dbmem.Manager.clerk;
  max_query_frac : float;
  min_grant : int;
  timeout : float;
}

let create eng _manager ?(trace = Obs.Trace.null) ~clerk ~total
    ?(max_query_frac = 0.25) ?(min_grant = 1024 * 1024) ?(timeout = 300.) () =
  if total <= 0 then invalid_arg "Grant.create: total";
  if not (max_query_frac > 0. && max_query_frac <= 1.) then
    invalid_arg "Grant.create: max_query_frac";
  {
    eng;
    gtrace = trace;
    sem = Sim.Resource.Sem.create eng ~name:"grants" ~capacity:total ();
    clerk;
    max_query_frac;
    min_grant;
    timeout;
  }

let trace t = t.gtrace

let emit t ~qid phase ~bytes =
  if Obs.Trace.enabled t.gtrace then
    Obs.Trace.emit t.gtrace ~time:(Sim.Engine.now t.eng) ~qid
      (Obs.Event.Grant { phase; bytes })

let target_grant t ~ideal =
  let cap =
    int_of_float (t.max_query_frac *. float_of_int (Sim.Resource.Sem.capacity t.sem))
  in
  max (min ideal t.min_grant) (min ideal cap)

let acquire t ?(qid = "") ~ideal () =
  if ideal < 0 then invalid_arg "Grant.acquire: negative";
  let n = target_grant t ~ideal in
  emit t ~qid Obs.Event.Wait ~bytes:n;
  match Sim.Resource.Sem.acquire t.sem ~timeout:t.timeout ~n () with
  | Sim.Resource.Timed_out ->
      emit t ~qid Obs.Event.Timeout ~bytes:n;
      (* Timed out queued for workspace memory: SQL Server 8645. *)
      Error (Health.Error.make ~detail:"grant" Health.Error.Memory_wait_timeout)
  | Sim.Resource.Acquired -> (
      (* Reserve physically so the broker sees execution memory; donors
         (caches) are shrunk if needed. *)
      match Dbmem.Manager.alloc t.clerk n with
      | Ok () ->
          emit t ~qid Obs.Event.Acquired ~bytes:n;
          Ok n
      | Error `Out_of_memory ->
          Sim.Resource.Sem.release t.sem ~n;
          emit t ~qid Obs.Event.Timeout ~bytes:n;
          (* The semaphore said yes but physical memory could not be
             produced — the grant is unavailable under low-memory
             conditions: SQL Server 8651. *)
          Error
            (Health.Error.make ~detail:"exec"
               Health.Error.Low_memory_condition))

let release t ?(qid = "") n =
  if n > 0 then begin
    Dbmem.Manager.free t.clerk n;
    Sim.Resource.Sem.release t.sem ~n;
    emit t ~qid Obs.Event.Release ~bytes:n
  end

let min_grant t = t.min_grant
let total t = Sim.Resource.Sem.capacity t.sem
let in_use t = Sim.Resource.Sem.in_use t.sem
let timeouts t = Sim.Resource.Sem.timeouts t.sem
let wait_stats t = Sim.Resource.Sem.wait_stats t.sem
