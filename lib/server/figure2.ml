let mib = Dbmem.Units.mib

type result = {
  series : Sim.Series.t array;
  trace : Obs.Trace.t;
}

(* A deliberately tight ladder on a small machine so the blocking is
   visible, mirroring the paper's simplified example. *)
let ladder =
  {
    Qcore.Throttle_config.dynamic = false;
    levels =
      [
        { Qcore.Throttle_config.lname = "first"; base_threshold = mib 4;
          slots = Qcore.Throttle_config.Total 2; timeout = 10_000.;
          fraction = 1.0; min_threshold = mib 4; max_threshold = mib 4 };
        { Qcore.Throttle_config.lname = "second"; base_threshold = mib 32;
          slots = Qcore.Throttle_config.Total 1; timeout = 10_000.;
          fraction = 0.35; min_threshold = mib 32; max_threshold = mib 32 };
        { Qcore.Throttle_config.lname = "third"; base_threshold = mib 128;
          slots = Qcore.Throttle_config.Total 1; timeout = 10_000.;
          fraction = 0.45; min_threshold = mib 128; max_threshold = mib 128 };
      ];
  }

let ladder_slots =
  List.map
    (fun (l : Qcore.Throttle_config.level) ->
      (l.Qcore.Throttle_config.lname,
       Qcore.Throttle_config.slot_count l.Qcore.Throttle_config.slots ~cpus:1))
    ladder.Qcore.Throttle_config.levels

let run ?(seed = 7) ?(qseed = 11) ?(trace = Obs.Trace.null) ?(until = 600.) () =
  let eng = Sim.Engine.create ~seed () in
  let manager = Dbmem.Manager.create ~total:(Dbmem.Units.gib 1) () in
  if Obs.Trace.enabled trace then
    Dbmem.Manager.set_trace manager ~now:(fun () -> Sim.Engine.now eng) trace;
  let clerk = Dbmem.Manager.create_clerk manager "compile" in
  let gov =
    Qcore.Compile_gov.create eng manager ~trace ~clerk ~cpus:1 ~config:ladder
      ~enabled:true ()
  in
  let cpu = Execsim.Cpu.create eng ~cores:1 () in
  let cat = Workload.Sales.catalog () in
  let rng = Sim.Rng.create qseed in
  let templates = Array.of_list (Workload.Sales.templates ()) in
  let sessions = Array.make 3 None in
  let series =
    Array.init 3 (fun i -> Sim.Series.create ~name:(Printf.sprintf "Q%d" (i + 1)) ())
  in
  let params =
    { Optimizer.Cascades.default_params with
      Optimizer.Cascades.max_tasks = 14_000; min_tasks = 14_000;
      honor_stop_early = false }
  in
  (* The background task (the "other queries, not shown" of the paper's
     example) holds the first two monitors for the first 60 seconds, so Q1
     itself experiences blocking. *)
  Sim.Engine.spawn eng ~name:"background" (fun () ->
      let s = Qcore.Compile_gov.begin_compile ~qid:"background" gov in
      (match Qcore.Compile_gov.alloc s (mib 40) with Ok () -> () | Error _ -> ());
      Sim.Engine.sleep 60.;
      Qcore.Compile_gov.end_compile s);
  let spawn_query i ~delay ~template =
    let qid = Printf.sprintf "Q%d" (i + 1) in
    Sim.Engine.spawn eng ~name:qid ~delay (fun () ->
        let q = Workload.Template.instance rng templates.(template) ~id:i in
        let session = Qcore.Compile_gov.begin_compile ~qid gov in
        sessions.(i) <- Some session;
        let env =
          {
            Optimizer.Env.alloc =
              (fun n ->
                match Qcore.Compile_gov.alloc session n with
                | Ok () -> ()
                | Error _ ->
                    raise (Optimizer.Env.Aborted Optimizer.Env.Out_of_memory));
            cpu = (fun s -> Execsim.Cpu.busy cpu s);
            should_stop = (fun () -> false);
          }
        in
        (match
           Optimizer.Cascades.optimize ~params ~env Optimizer.Cost.default cat q
         with
        | Ok _ -> ()
        | Error _ -> ());
        Qcore.Compile_gov.end_compile session;
        sessions.(i) <- None)
  in
  (* Q1 and Q2 start almost together (Q1 gets more CPU early), Q3 later. *)
  spawn_query 0 ~delay:2.0 ~template:4;
  spawn_query 1 ~delay:6.0 ~template:0;
  spawn_query 2 ~delay:30.0 ~template:5;
  let sampler =
    Sim.Engine.every eng ~interval:2.0 (fun () ->
        Array.iteri
          (fun i _ ->
            let usage =
              match sessions.(i) with
              | Some session -> Qcore.Compile_gov.usage session
              | None -> 0
            in
            Sim.Series.add series.(i) ~time:(Sim.Engine.now eng)
              (float_of_int usage))
          series)
  in
  Sim.Engine.run eng ~until;
  Sim.Engine.cancel sampler;
  { series; trace }
