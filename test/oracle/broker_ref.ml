open Qcore.Broker

(* Prediction horizon, seconds. *)
let horizon = 5.0

(* Trend window, in samples. *)
let window = 10

let reserved_fraction = Qcore.Broker.reserved_fraction

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
  trend : Trend_ref.t;
  mutable ctarget : int;
  mutable last : notification option;
}

type t = {
  eng : Sim.Engine.t;
  manager : Dbmem.Manager.t;
  mutable comps_rev : component list;
  mutable pressure : bool;
  mutable ticks : int;
  mutable predicted_sum : int;
}

let create eng manager =
  {
    eng;
    manager;
    comps_rev = [];
    pressure = false;
    ticks = 0;
    predicted_sum = 0;
  }

let brokered_bytes t =
  int_of_float
    (float_of_int (Dbmem.Manager.total t.manager)
    *. (1. -. reserved_fraction))

let components t = List.rev t.comps_rev

let register t ~name ~clerk ?(weight = 1.) ?(min_bytes = 0) ?demand ?notify
    () =
  if weight <= 0. then invalid_arg "Broker.register: weight must be > 0";
  let c =
    {
      name;
      clerk;
      weight;
      min_bytes;
      demand;
      notify;
      trend = Trend_ref.create ~window ();
      ctarget = 0;
      last = None;
    }
  in
  t.comps_rev <- c :: t.comps_rev;
  (* Before the first tick, hand out even shares so targets are sane. *)
  let n = List.length t.comps_rev in
  List.iter
    (fun c -> c.ctarget <- brokered_bytes t / n)
    t.comps_rev;
  c

(* Split [budget] over the [(component, used, predicted)] items
   proportionally to weighted predicted demand, honouring [min_bytes]
   floors without overflowing the budget: a component whose proportional
   share falls below its floor is pinned at the floor and the remainder
   is re-split among the rest. Terminates because each round pins at
   least one component. When the floors alone exceed the budget every
   component gets exactly its floor — the overshoot lands in the
   manager's reserved slack rather than being invented per-component.
   Returns targets keyed by component (physical identity). *)
let split_under_pressure budget items =
  let rec go budget items acc =
    match items with
    | [] -> acc
    | _ ->
        let floors =
          List.fold_left (fun a (c, _, _) -> a + c.min_bytes) 0 items
        in
        if floors >= budget then
          List.fold_left (fun acc (c, _, _) -> (c, c.min_bytes) :: acc) acc items
        else
          let demand_sum =
            List.fold_left
              (fun a (c, _, p) -> a +. (c.weight *. float_of_int (max 1 p)))
              0. items
          in
          let share (c, _, p) =
            int_of_float
              (float_of_int budget
              *. (c.weight *. float_of_int (max 1 p))
              /. demand_sum)
          in
          let pinned, rest =
            List.partition (fun ((c, _, _) as it) -> share it < c.min_bytes) items
          in
          if pinned = [] then
            List.fold_left
              (fun acc ((c, _, _) as it) -> (c, share it) :: acc)
              acc items
          else
            let acc =
              List.fold_left (fun acc (c, _, _) -> (c, c.min_bytes) :: acc) acc
                pinned
            in
            let pinned_bytes =
              List.fold_left (fun a (c, _, _) -> a + c.min_bytes) 0 pinned
            in
            go (budget - pinned_bytes) rest acc
  in
  go budget items []

(* One broker cycle: sample, predict, split the budget, notify. *)
let tick t =
  let comps = components t in
  t.ticks <- t.ticks + 1;
  if comps <> [] then begin
    let now = Sim.Engine.now t.eng in
    let budget = brokered_bytes t in
    (* 1. Sample and predict. *)
    let predictions =
      List.map
        (fun c ->
          let used = Dbmem.Manager.clerk_used c.clerk in
          let demand =
            match c.demand with Some f -> max used (f ()) | None -> used
          in
          Trend_ref.observe c.trend ~time:now (float_of_int demand);
          let predicted =
            match Trend_ref.predict c.trend ~horizon with
            | None -> demand
            | Some p -> max demand (int_of_float p)
          in
          (c, used, predicted))
        comps
    in
    let total_predicted =
      List.fold_left (fun acc (_, _, p) -> acc + p) 0 predictions
    in
    let pressure = total_predicted > budget in
    t.pressure <- pressure;
    t.predicted_sum <- total_predicted;
    (* 2. Compute targets. *)
    let targets =
      if not pressure then begin
        (* No action needed: targets are "your prediction plus your share of
           the slack" so components know how much headroom exists. *)
        let slack = budget - total_predicted in
        let weight_sum = List.fold_left (fun a (c, _, _) -> a +. c.weight) 0. predictions in
        List.map
          (fun (c, used, predicted) ->
            let share = float_of_int slack *. (c.weight /. weight_sum) in
            (c, used, predicted, max c.min_bytes (predicted + int_of_float share)))
          predictions
      end
      else begin
        (* Pressure: distribute the budget proportionally to weighted
           predicted demand, pinning components at their [min_bytes]
           floor and re-splitting the remainder so targets never sum
           past the budget. *)
        let granted = split_under_pressure budget predictions in
        List.map
          (fun (c, used, predicted) ->
            (c, used, predicted, List.assq c granted))
          predictions
      end
    in
    (* 3. Decide verdicts and notify. *)
    List.iter
      (fun (c, used, predicted, target) ->
        c.ctarget <- target;
        let verdict =
          if float_of_int used > float_of_int target *. (1. +. shrink_slack)
          then Must_shrink
          else if predicted > target then Hold_rate
          else Can_grow
        in
        let n = { verdict; target; predicted; pressure } in
        c.last <- Some n;
        match c.notify with None -> () | Some f -> f n)
      targets
  end

let under_pressure t = t.pressure
let predicted_total t = t.predicted_sum
let last_notification c = c.last
let target c = c.ctarget
