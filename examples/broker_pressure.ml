(* The Memory Broker on its own: three synthetic subcomponents share
   1 GiB — a cache that grows to fill whatever is free, a steady consumer,
   and a bursty one. Watch the broker detect the burst from its allocation
   trend, flip the system into pressure mode, and squeeze the cache.

     dune exec examples/broker_pressure.exe *)

let mib = Dbmem.Units.mib

let () =
  let eng = Sim.Engine.create ~seed:3 () in
  let manager = Dbmem.Manager.create ~total:(Dbmem.Units.gib 1) () in
  let cache = Dbmem.Manager.create_clerk manager "cache" in
  let steady = Dbmem.Manager.create_clerk manager "steady" in
  let bursty = Dbmem.Manager.create_clerk manager "bursty" in
  let broker = Qcore.Broker.create eng manager in

  (* The cache obeys its broker verdicts: grow opportunistically, release
     down to target when told to shrink. *)
  let cache_component =
    Qcore.Broker.register broker ~name:"cache" ~clerk:cache ~weight:1.0
      ~notify:(fun n ->
        match n.Qcore.Broker.verdict with
        | Qcore.Broker.Must_shrink ->
            let excess = Dbmem.Manager.clerk_used cache - n.Qcore.Broker.target in
            if excess > 0 then Dbmem.Manager.free cache excess
        | Qcore.Broker.Can_grow ->
            let room = n.Qcore.Broker.target - Dbmem.Manager.clerk_used cache in
            if room > 0 then ignore (Dbmem.Manager.alloc cache (min room (mib 64)))
        | Qcore.Broker.Hold_rate -> ())
      ()
  in
  ignore (Qcore.Broker.register broker ~name:"steady" ~clerk:steady ());
  let bursty_component = Qcore.Broker.register broker ~name:"bursty" ~clerk:bursty () in
  Qcore.Broker.start broker;

  Dbmem.Manager.alloc_exn steady (mib 200);

  (* The burst: +60 MiB per second from t=20 to t=32, released at t=50. *)
  Sim.Engine.spawn eng ~name:"burst" (fun () ->
      Sim.Engine.sleep 20.;
      for _ = 1 to 12 do
        (match Dbmem.Manager.alloc bursty (mib 60) with
        | Ok () -> ()
        | Error `Out_of_memory -> print_endline "  !! burst allocation failed");
        Sim.Engine.sleep 1.0
      done;
      Sim.Engine.sleep 18.;
      Dbmem.Manager.free_all bursty);

  (* Observer: one row per 4 seconds. *)
  let rows = ref [] in
  ignore
    (Sim.Engine.every eng ~interval:4.0 (fun () ->
         let verdict =
           match Qcore.Broker.last_notification cache_component with
           | Some n -> (
               match n.Qcore.Broker.verdict with
               | Qcore.Broker.Can_grow -> "grow"
               | Qcore.Broker.Hold_rate -> "hold"
               | Qcore.Broker.Must_shrink -> "SHRINK")
           | None -> "-"
         in
         rows :=
           [
             Printf.sprintf "%.0f" (Sim.Engine.now eng);
             Dbmem.Units.bytes_to_string (Dbmem.Manager.clerk_used cache);
             Dbmem.Units.bytes_to_string (Dbmem.Manager.clerk_used bursty);
             Dbmem.Units.bytes_to_string (Qcore.Broker.target cache_component);
             Dbmem.Units.bytes_to_string (Qcore.Broker.target bursty_component);
             verdict;
             (if Qcore.Broker.under_pressure broker then "YES" else "no");
           ]
           :: !rows));

  Sim.Engine.run eng ~until:80.;
  Server.Report.table
    ~header:[ "t (s)"; "cache"; "bursty"; "cache target"; "bursty target";
              "cache verdict"; "pressure" ]
    (List.rev !rows);
  print_newline ();
  print_endline
    "The broker spots the burst's allocation trend before memory is actually\n\
     exhausted, declares pressure, and tells the cache to shrink; when the\n\
     burst releases its memory the cache is allowed to grow back."
