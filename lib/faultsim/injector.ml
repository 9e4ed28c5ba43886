type hooks = {
  ballast_grab : int -> bool;
  ballast_release : int -> unit;
  disk_set : throughput_factor:float -> extra_seek_s:float -> unit;
  disk_clear : unit -> unit;
  alloc_fault_set : (string -> int -> bool) -> unit;
  alloc_fault_clear : unit -> unit;
  burst_clients : clients:int -> think_mean:float -> until:float -> unit;
  shard_crash : shard:int -> restart_delay:float -> unit;
  shard_stall : shard:int -> duration:float -> slow_factor:float -> unit;
}

let null_hooks =
  {
    ballast_grab = (fun _ -> false);
    ballast_release = (fun _ -> ());
    disk_set = (fun ~throughput_factor:_ ~extra_seek_s:_ -> ());
    disk_clear = (fun () -> ());
    alloc_fault_set = (fun _ -> ());
    alloc_fault_clear = (fun () -> ());
    burst_clients = (fun ~clients:_ ~think_mean:_ ~until:_ -> ());
    shard_crash = (fun ~shard:_ ~restart_delay:_ -> ());
    shard_stall = (fun ~shard:_ ~duration:_ ~slow_factor:_ -> ());
  }

type t = {
  hooks : hooks;
  mutable started : int;
  mutable finished : int;
  mutable ballast_refused : int;
  mutable ballast_held : int;
  mutable ballast_peak : int;
  mutable storms : (float * float) list;  (* active (factor, extra_seek) *)
  mutable glitches : (string -> int -> bool) list;
}

(* Concurrent storms compose by worst-case: slowest bandwidth, largest
   added seek. *)
let refresh_disk t =
  match t.storms with
  | [] -> t.hooks.disk_clear ()
  | storms ->
      let factor = List.fold_left (fun a (f, _) -> Float.min a f) 1. storms in
      let seek = List.fold_left (fun a (_, s) -> Float.max a s) 0. storms in
      t.hooks.disk_set ~throughput_factor:factor ~extra_seek_s:seek

let refresh_glitches t =
  match t.glitches with
  | [] -> t.hooks.alloc_fault_clear ()
  | preds ->
      t.hooks.alloc_fault_set (fun clerk bytes ->
          (* Evaluate every predicate so rng draws do not depend on list
             order short-circuiting. *)
          List.fold_left (fun acc p -> p clerk bytes || acc) false preds)

let run_ballast t ~bytes ~hold ~ramp_steps ~step_s =
  let per_step = max 1 (bytes / ramp_steps) in
  let grabbed = ref 0 in
  for step = 1 to ramp_steps do
    (* Last step takes the rounding remainder so the total is exact. *)
    let want = if step = ramp_steps then bytes - !grabbed else per_step in
    if want > 0 then
      if t.hooks.ballast_grab want then begin
        grabbed := !grabbed + want;
        t.ballast_held <- t.ballast_held + want;
        t.ballast_peak <- max t.ballast_peak t.ballast_held
      end
      else t.ballast_refused <- t.ballast_refused + 1;
    if step < ramp_steps then Sim.Engine.sleep step_s
  done;
  Sim.Engine.sleep hold;
  t.hooks.ballast_release !grabbed;
  t.ballast_held <- t.ballast_held - !grabbed

let run_storm t ~duration ~throughput_factor ~extra_seek_s =
  let entry = (throughput_factor, extra_seek_s) in
  t.storms <- entry :: t.storms;
  refresh_disk t;
  Sim.Engine.sleep duration;
  (* Remove one occurrence of this storm's entry. *)
  let removed = ref false in
  t.storms <-
    List.filter
      (fun e ->
        if (not !removed) && e == entry then (removed := true; false)
        else true)
      t.storms;
  refresh_disk t

let run_glitch t ~rng ~duration ~fail_prob ~clerks =
  let applies clerk =
    match clerks with [] -> true | l -> List.mem clerk l
  in
  let pred clerk _bytes = applies clerk && Sim.Rng.float rng 1.0 < fail_prob in
  t.glitches <- pred :: t.glitches;
  refresh_glitches t;
  Sim.Engine.sleep duration;
  t.glitches <- List.filter (fun p -> p != pred) t.glitches;
  refresh_glitches t

let install eng ~rng ~hooks specs =
  List.iter Fault.validate specs;
  let t =
    {
      hooks;
      started = 0;
      finished = 0;
      ballast_refused = 0;
      ballast_held = 0;
      ballast_peak = 0;
      storms = [];
      glitches = [];
    }
  in
  List.iter
    (fun spec ->
      (* One independent stream per spec, split in list order, so adding a
         spec never perturbs the others' draws. *)
      let spec_rng = Sim.Rng.split rng in
      let start, _ = Fault.window spec in
      Sim.Engine.spawn eng ~name:("fault:" ^ Fault.label spec) ~delay:start
        (fun () ->
          t.started <- t.started + 1;
          (match spec with
          | Fault.Memory_ballast { bytes; hold; ramp_steps; step_s; _ } ->
              run_ballast t ~bytes ~hold ~ramp_steps ~step_s
          | Fault.Disk_storm { duration; throughput_factor; extra_seek_s; _ }
            ->
              run_storm t ~duration ~throughput_factor ~extra_seek_s
          | Fault.Client_burst { at; duration; clients; think_mean } ->
              t.hooks.burst_clients ~clients ~think_mean
                ~until:(at +. duration)
          | Fault.Alloc_glitch { duration; fail_prob; clerks; _ } ->
              run_glitch t ~rng:spec_rng ~duration ~fail_prob ~clerks
          | Fault.Shard_crash { shard; restart_delay; _ } ->
              (* The shard layer owns the restart schedule; the injector
                 only pulls the trigger. *)
              t.hooks.shard_crash ~shard ~restart_delay
          | Fault.Shard_stall { shard; duration; slow_factor; _ } ->
              t.hooks.shard_stall ~shard ~duration ~slow_factor);
          t.finished <- t.finished + 1))
    specs;
  t

let started t = t.started
let finished t = t.finished
let ballast_refused t = t.ballast_refused
let ballast_peak t = t.ballast_peak
