(* Golden test of the Dbms retry ladder.

   Every gateway and the grant queue time out after 5 s, and a 6 GiB
   ballast ramps in at 60 s and holds for two minutes. Queries then
   time out at the gateways and back off, and the greedy and spill
   rungs carry part of the load. The run is a pure function of the
   seed, so the rendered result and a digest of its full JSONL trace
   pin the ladder's behaviour: retries, backoff sleeps, degraded plans
   and the broker's verdicts. *)

let impatient base =
  {
    base with
    Server.Config.seed = 5;
    grant_timeout = 5.;
    throttle =
      {
        base.Server.Config.throttle with
        Qcore.Throttle_config.levels =
          List.map
            (fun l -> { l with Qcore.Throttle_config.timeout = 5. })
            base.Server.Config.throttle.Qcore.Throttle_config.levels;
      };
    faults =
      [
        Faultsim.Fault.Memory_ballast
          {
            at = 60.;
            bytes = Dbmem.Units.gib 6;
            hold = 120.;
            ramp_steps = 10;
            step_s = 2.;
          };
      ];
  }

let render name (r : Server.Experiment.result) trace =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let open Server.Experiment in
  line "== %s" name;
  line "clients %d throttled %b resilient %b" r.clients r.throttled r.resilient;
  line "warmup %g measure %g slice %g" r.warmup r.measure r.slice;
  Array.iter (fun (t, v) -> line "slice %g %g" t v) r.slices;
  line "mean_per_slice %.17g" r.mean_per_slice;
  line "completed %d errors %d retries %d degraded %d" r.total_completed
    r.total_errors r.retries r.degraded;
  List.iter (fun (k, n) -> line "error %s %d" k n) r.errors;
  line "faults %d/%d ballast_peak %d refused %d" r.faults_started
    r.faults_finished r.ballast_peak r.ballast_refused;
  let c = r.client_stats in
  line "client submitted %d attempts %d succeeded %d abandoned %d"
    c.Workload.Client.submitted c.Workload.Client.attempts
    c.Workload.Client.succeeded c.Workload.Client.abandoned;
  line "compile mean %.17g max %.17g" r.compile_mean_s r.compile_max_s;
  line "exec mean %.17g max %.17g" r.exec_mean_s r.exec_max_s;
  line "compile_peak mean %.17g max %.17g" r.compile_peak_mean
    r.compile_peak_max;
  line "pool_hit %.17g cache_hit %.17g cpu %.17g" r.pool_hit_rate
    r.cache_hit_rate r.cpu_utilization;
  List.iter
    (fun (clerk, s) ->
      let times, values = Sim.Series.to_arrays s in
      line "memory %s %d %s" clerk (Array.length times)
        (Digest.to_hex (Digest.string (Marshal.to_string (times, values) []))))
    r.memory_series;
  let jsonl = Format.asprintf "%a" Obs.Export.jsonl (Obs.Trace.records trace) in
  line "trace %d dropped %d digest %s" (Obs.Trace.length trace)
    (Obs.Trace.dropped trace)
    (Digest.to_hex (Digest.string jsonl));
  Buffer.contents b

let run name config =
  let trace = Obs.Trace.create ~capacity:(1 lsl 20) () in
  let r =
    Server.Experiment.run ~config:(impatient config) ~trace ~seed:5
      ~clients:40 ~warmup:30. ~measure:600. ~slice:60. ()
  in
  render name r trace

let test_ladder_golden () =
  let got = run "resilient" (Server.Config.resilient ()) in
  let expected =
    Test_trace.read_file (Test_trace.golden_path "ladder_retry.golden")
  in
  if got <> expected then (
    let oc = open_out "ladder_retry.actual" in
    output_string oc got;
    close_out oc;
    Alcotest.failf
      "retry ladder diverges from golden (%d vs %d bytes); actual written \
       to ladder_retry.actual"
      (String.length got) (String.length expected))

let suite = [ ("retry ladder matches golden", `Quick, test_ladder_golden) ]
