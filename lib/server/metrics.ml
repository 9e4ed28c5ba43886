(* Errors are counted by structured taxonomy code (Health.Error), so the
   server's books and the health report speak the same vocabulary. *)

(* Back-pressure refusals (downed shards, spent retry budgets) are deliberate, polite
   refusals under overload; everything else is a hard resource failure
   (the reliability numbers of §5). *)
let is_hard_error code = Health.Error.severity code <> Health.Error.Informational

type t = {
  eng : Sim.Engine.t;
  completions : Sim.Series.t;
  mutable error_counts : (Health.Error.code * int ref) list;
  compile_time : Sim.Stats.Online.t;
  exec_time : Sim.Stats.Online.t;
  compile_peak : Sim.Stats.Online.t;
  mutable cache_hits : int;
  mutable retries : int;
  mutable degraded : int;
  mutable memory : (string * Sim.Series.t) list;
}

let create eng =
  {
    eng;
    (* Experiments complete thousands of queries; start past the doubling
       ramp. *)
    completions = Sim.Series.create ~name:"completions" ~capacity:1024 ();
    error_counts = List.map (fun k -> (k, ref 0)) Health.Error.all_codes;
    compile_time = Sim.Stats.Online.create ();
    exec_time = Sim.Stats.Online.create ();
    compile_peak = Sim.Stats.Online.create ();
    cache_hits = 0;
    retries = 0;
    degraded = 0;
    memory = [];
  }

let record_completion t ~compile_s ~exec_s =
  Sim.Series.add t.completions ~time:(Sim.Engine.now t.eng) 1.;
  Sim.Stats.Online.add t.compile_time compile_s;
  Sim.Stats.Online.add t.exec_time exec_s

let record_error t code = incr (List.assoc code t.error_counts)
let record_compile_peak t bytes = Sim.Stats.Online.add t.compile_peak (float_of_int bytes)
let record_cache_hit t = t.cache_hits <- t.cache_hits + 1
let record_retry t = t.retries <- t.retries + 1
let record_degraded t = t.degraded <- t.degraded + 1

let watch_memory ?(trace = Obs.Trace.null) t ~interval clerks =
  let series =
    List.map
      (fun (name, _) -> (name, Sim.Series.create ~name ~capacity:512 ()))
      clerks
  in
  t.memory <- t.memory @ series;
  ignore
    (Sim.Engine.every t.eng ~interval (fun () ->
         let now = Sim.Engine.now t.eng in
         List.iter
           (fun (name, clerk) ->
             let s = List.assoc name series in
             let used = Dbmem.Manager.clerk_used clerk in
             if Obs.Trace.enabled trace then
               Obs.Trace.emit trace ~time:now ~qid:""
                 (Obs.Event.Mem { clerk = name; used });
             Sim.Series.add s ~time:now (float_of_int used))
           clerks))

let completions t = t.completions

let throughput t ~start ~stop ~width =
  Sim.Series.bucket_sum t.completions ~start ~stop ~width

let total_completions t ?(since = 0.) () =
  Array.length (Sim.Series.values_between t.completions ~start:since ~stop:infinity)

let errors t = List.map (fun (k, r) -> (k, !r)) t.error_counts
let error_count t code = !(List.assoc code t.error_counts)
let total_errors t = List.fold_left (fun acc (_, r) -> acc + !r) 0 t.error_counts

let cache_hits t = t.cache_hits
let retries t = t.retries
let degraded t = t.degraded
let compile_time t = t.compile_time
let exec_time t = t.exec_time
let compile_peak t = t.compile_peak
let memory_series t = t.memory

let pp ppf t =
  Format.fprintf ppf "@[<v>completions: %d@," (Sim.Series.length t.completions);
  List.iter
    (fun (k, n) ->
      if n > 0 then Format.fprintf ppf "%s: %d@," (Health.Error.code_name k) n)
    (errors t);
  if t.retries > 0 || t.degraded > 0 then
    Format.fprintf ppf "retries: %d, degraded completions: %d@," t.retries
      t.degraded;
  Format.fprintf ppf "compile time: %a@," Sim.Stats.Online.pp t.compile_time;
  Format.fprintf ppf "exec time: %a@," Sim.Stats.Online.pp t.exec_time;
  Format.fprintf ppf "compile peak mem: %a@]" Sim.Stats.Online.pp t.compile_peak
