type verdict = Can_grow | Hold_rate | Must_shrink

type notification = {
  verdict : verdict;
  target : int;
  predicted : int;
  pressure : bool;
}

(* Seconds between broker ticks. *)
let interval = 1.0

(* Prediction horizon, seconds. *)
let horizon = 5.0

(* Trend window, in samples. *)
let window = 10

let reserved_fraction = 0.05

(* Tolerated overshoot of a component's target before demanding a
   shrink. *)
let shrink_slack = 0.02

type component = {
  name : string;
  clerk : Dbmem.Manager.clerk;
  weight : float;
  min_bytes : int;
  demand : (unit -> int) option;
  notify : (notification -> unit) option;
  trend : Trend.t;
  mutable ctarget : int;
  mutable last : notification option;
  (* Scratch of one tick: this tick's sample and prediction, and whether
     the pressure split has yet to pin this component. *)
  mutable used : int;
  mutable predicted : int;
  mutable unpinned : bool;
}

type t = {
  eng : Sim.Engine.t;
  manager : Dbmem.Manager.t;
  trace : Obs.Trace.t;
  clock : Sim.Engine.fcell; (* the tick's time, read without boxing *)
  mutable comps : component array; (* in registration order *)
  mutable pressure : bool;
  mutable ticks : int;
  mutable timer : Sim.Engine.handle option;
  mutable predicted_sum : int;
}

let create ?(trace = Obs.Trace.null) eng manager =
  {
    eng;
    manager;
    trace;
    clock = { Sim.Engine.fc = 0. };
    comps = [||];
    pressure = false;
    ticks = 0;
    timer = None;
    predicted_sum = 0;
  }

let brokered_bytes t =
  int_of_float
    (float_of_int (Dbmem.Manager.total t.manager)
    *. (1. -. reserved_fraction))

let register t ~name ~clerk ?(weight = 1.) ?(min_bytes = 0) ?demand ?notify
    ?reclaim:_ () =
  if weight <= 0. then invalid_arg "Broker.register: weight must be > 0";
  let c =
    {
      name;
      clerk;
      weight;
      min_bytes;
      demand;
      notify;
      trend = Trend.create ~window ();
      ctarget = 0;
      last = None;
      used = 0;
      predicted = 0;
      unpinned = false;
    }
  in
  t.comps <- Array.append t.comps [| c |];
  (* Before the first tick, hand out even shares so targets are sane. *)
  let share = brokered_bytes t / Array.length t.comps in
  Array.iter (fun c -> c.ctarget <- share) t.comps;
  c

(* Split [budget] over [comps] proportionally to weighted predicted
   demand, honouring [min_bytes] floors without overflowing the budget: a
   component whose proportional share falls below its floor is pinned at
   the floor and the remainder is re-split among the rest. Terminates
   because each round pins at least one component. When the floors alone
   exceed the budget every unpinned component gets exactly its floor — the
   overshoot lands in the manager's reserved slack rather than being
   invented per-component. Writes each target; every sum runs in
   registration order. *)
let split_under_pressure budget comps =
  Array.iter (fun c -> c.unpinned <- true) comps;
  let budget = ref budget and again = ref true in
  while !again do
    let floors = ref 0 and demand_sum = ref 0. in
    for i = 0 to Array.length comps - 1 do
      let c = comps.(i) in
      if c.unpinned then begin
        floors := !floors + c.min_bytes;
        demand_sum :=
          !demand_sum +. (c.weight *. float_of_int (Int.max 1 c.predicted))
      end
    done;
    let floors_only = !floors >= !budget and pinned_bytes = ref 0
    and pinned = ref false in
    for i = 0 to Array.length comps - 1 do
      let c = comps.(i) in
      if c.unpinned then
        if floors_only then c.ctarget <- c.min_bytes
        else begin
          let share =
            int_of_float
              (float_of_int !budget
              *. (c.weight *. float_of_int (Int.max 1 c.predicted))
              /. !demand_sum)
          in
          if share < c.min_bytes then begin
            c.ctarget <- c.min_bytes;
            c.unpinned <- false;
            pinned := true;
            pinned_bytes := !pinned_bytes + c.min_bytes
          end
          else c.ctarget <- share
        end
    done;
    budget := !budget - !pinned_bytes;
    again := !pinned
  done

let verdict_of c =
  if float_of_int c.used > float_of_int c.ctarget *. (1. +. shrink_slack)
  then Must_shrink
  else if c.predicted > c.ctarget then Hold_rate
  else Can_grow

let sample c =
  {
    Obs.Event.comp = c.name;
    used = c.used;
    predicted = c.predicted;
    target = c.ctarget;
    verdict =
      (match verdict_of c with
      | Can_grow -> Obs.Event.Grow
      | Hold_rate -> Obs.Event.Stable
      | Must_shrink -> Obs.Event.Shrink);
  }

(* One broker cycle: sample, predict, split the budget, notify. Untraced,
   it builds nothing but each component's notification. *)
let tick t =
  let comps = t.comps in
  t.ticks <- t.ticks + 1;
  if Array.length comps > 0 then begin
    Sim.Engine.now_into t.eng t.clock;
    let budget = brokered_bytes t in
    (* 1. Sample and predict. *)
    let total_predicted = ref 0 in
    for i = 0 to Array.length comps - 1 do
      let c = comps.(i) in
      let used = Dbmem.Manager.clerk_used c.clerk in
      let demand =
        match c.demand with Some f -> Int.max used (f ()) | None -> used
      in
      c.used <- used;
      c.predicted <-
        Trend.observe_bytes c.trend ~time:t.clock ~horizon demand;
      total_predicted := !total_predicted + c.predicted
    done;
    let total_predicted = !total_predicted in
    let pressure = total_predicted > budget in
    t.pressure <- pressure;
    t.predicted_sum <- total_predicted;
    (* 2. Compute targets. *)
    if not pressure then begin
      (* No action needed: targets are "your prediction plus your share of
         the slack" so components know how much headroom exists. *)
      let slack = budget - total_predicted and weight_sum = ref 0. in
      for i = 0 to Array.length comps - 1 do
        weight_sum := !weight_sum +. comps.(i).weight
      done;
      for i = 0 to Array.length comps - 1 do
        let c = comps.(i) in
        let share = float_of_int slack *. (c.weight /. !weight_sum) in
        c.ctarget <-
          Int.max c.min_bytes (c.predicted + int_of_float share)
      done
    end
    else
      (* Pressure: distribute the budget proportionally to weighted
         predicted demand, pinning components at their [min_bytes] floor
         and re-splitting the remainder so targets never sum past the
         budget. *)
      split_under_pressure budget comps;
    (* 3. Decide verdicts and notify. *)
    for i = 0 to Array.length comps - 1 do
      let c = comps.(i) in
      let n =
        {
          verdict = verdict_of c;
          target = c.ctarget;
          predicted = c.predicted;
          pressure;
        }
      in
      c.last <- Some n;
      match c.notify with None -> () | Some f -> f n
    done;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.emit t.trace ~time:t.clock.fc ~qid:""
        (Obs.Event.Broker_tick
           {
             pressure;
             budget;
             components = Array.to_list (Array.map sample comps);
           })
  end

let start t =
  match t.timer with
  | Some _ -> ()
  | None ->
      t.timer <-
        Some (Sim.Engine.every t.eng ~interval (fun () -> tick t))

let stop t =
  match t.timer with
  | None -> ()
  | Some h ->
      Sim.Engine.cancel h;
      t.timer <- None

let under_pressure t = t.pressure
let ticks t = t.ticks
let predicted_total t = t.predicted_sum
let last_notification c = c.last
let target c = c.ctarget

let pp ppf t =
  Format.fprintf ppf "@[<v>broker ticks=%d pressure=%b budget=%a@," t.ticks
    t.pressure Dbmem.Units.pp_bytes (brokered_bytes t);
  Array.iter
    (fun c ->
      let used = Dbmem.Manager.clerk_used c.clerk in
      Format.fprintf ppf "  %-12s used=%a target=%a@," c.name
        Dbmem.Units.pp_bytes used Dbmem.Units.pp_bytes c.ctarget)
    t.comps;
  Format.fprintf ppf "@]"
