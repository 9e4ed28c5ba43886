type resources = {
  eng : Sim.Engine.t;
  cpu : Cpu.t;
  pool : Bufpool.Pool.t;
  disk : Bufpool.Disk.t;
  grants : Grant.t;
  rng : Sim.Rng.t;
}

(* Converts {!Optimizer.Plan.cpu_cost} units into CPU seconds. *)
let cpu_seconds_per_cost = 4.0e-5

(* Bytes of extra disk traffic per byte of grant shortfall: written out
   and read back. *)
let spill_io_factor = 2.0

(* Page size the cost model counted pages in; converted to pool granules
   here. *)
let cost_page_bytes = 8192

type outcome = {
  duration : float;
  granted : int;
  ideal : int;
  pages_read : int;
  spilled : bool;
}

let run_scan res ~cpu_share (s : Optimizer.Plan.scan) =
  let table = Bufpool.Pool.table_id res.pool s.Optimizer.Plan.stable in
  (* Plan page counts are in cost-model pages; the pool caches coarser
     granules. *)
  let granules cost_pages =
    let bytes = cost_pages *. float_of_int cost_page_bytes in
    max 1
      (int_of_float
         (ceil (bytes /. float_of_int (Bufpool.Pool.page_bytes res.pool))))
  in
  let pages = granules s.Optimizer.Plan.spages in
  let total = max pages (granules s.Optimizer.Plan.stotal_pages) in
  if s.Optimizer.Plan.random_io then
    Bufpool.Pool.read_random res.pool ~table ~pages ~of_pages:total ~rng:res.rng
  else begin
    (* Ad-hoc scans hit different parts of the table: pick a random
       starting offset so working sets of concurrent queries overlap only
       partially. *)
    let first =
      if total > pages then Sim.Rng.int res.rng (total - pages + 1) else 0
    in
    Bufpool.Pool.read_range res.pool ~table ~first ~count:pages
  end;
  Cpu.busy res.cpu cpu_share;
  pages

let spill_io res ~bytes =
  (* Spilled partitions are written out and read back, in bounded chunks so
     one spill does not monopolise a spindle. *)
  let chunk = 32 * 1024 * 1024 in
  let rec go remaining write =
    if remaining > 0 then begin
      let n = min chunk remaining in
      if write then Bufpool.Disk.write res.disk ~bytes:n
      else Bufpool.Disk.read res.disk ~bytes:n;
      go (remaining - n) write
    end
  in
  go (bytes / 2) true;
  go (bytes / 2) false

let run ?grant_cap ?(qid = "") res plan =
  let start = Sim.Engine.now res.eng in
  let trace = Grant.trace res.grants in
  let emit ev =
    if Obs.Trace.enabled trace then
      Obs.Trace.emit trace ~time:(Sim.Engine.now res.eng) ~qid ev
  in
  let ideal = Optimizer.Plan.grant_bytes plan in
  (* A capped run asks the semaphore for less than the plan's ideal; the
     shortfall below [ideal] spills, exactly as a trimmed grant would. *)
  let ask = match grant_cap with Some c -> min ideal (max 1 c) | None -> ideal in
  match Grant.acquire res.grants ~qid ~ideal:ask () with
  | Error e -> Error e
  | Ok granted ->
      let finally () = Grant.release res.grants ~qid granted in
      emit Obs.Event.Exec_begin;
      Fun.protect ~finally (fun () ->
          let scans = Optimizer.Plan.scans plan in
          let total_pages =
            List.fold_left
              (fun acc (s : Optimizer.Plan.scan) ->
                acc +. Float.max 1. s.Optimizer.Plan.spages)
              0. scans
          in
          let total_cpu =
            Optimizer.Plan.cpu_cost plan *. cpu_seconds_per_cost
          in
          let pages_read =
            List.fold_left
              (fun acc (s : Optimizer.Plan.scan) ->
                let share =
                  total_cpu *. Float.max 1. s.Optimizer.Plan.spages /. total_pages
                in
                acc + run_scan res ~cpu_share:share s)
              0 scans
          in
          let shortfall = ideal - granted in
          let spilled = shortfall > 0 in
          if spilled then begin
            emit (Obs.Event.Spill { bytes = shortfall });
            spill_io res
              ~bytes:(int_of_float (float_of_int shortfall *. spill_io_factor))
          end;
          (* Exec_end here, inside the protected body, so the exec span
             closes before [finally] releases the grant — Chrome B/E pairs
             must nest. *)
          emit (Obs.Event.Exec_end { granted; ideal; spilled; pages = pages_read });
          Ok
            {
              duration = Sim.Engine.now res.eng -. start;
              granted;
              ideal;
              pages_read;
              spilled;
            })
