(* Seconds between arbiter ticks. *)
let interval = 2.0

(* Demand-prediction horizon, seconds. *)
let horizon = 5.0

(* Per-pool trend window, in samples. *)
let window = 10

(* A planned rebalance whose largest per-pool budget move is at most this
   many bytes is skipped entirely: no churn on noise. *)
let deadband = 8 * 1024 * 1024

type claim = {
  weight : float;
  min_share : float;
  max_share : float;
  predicted : int;
}

(* The split arithmetic, kept pure (and total) so it can be fuzzed.
   Floors first, then demand, then weighted surplus — all rounding is
   downward so the grants can never sum past [total]. *)
let plan ~total claims =
  match claims with
  | [] -> []
  | _ ->
      let floor_of c = int_of_float (c.min_share *. float_of_int total) in
      let cap_of c =
        max (floor_of c) (int_of_float (c.max_share *. float_of_int total))
      in
      let need =
        List.map (fun c -> min (cap_of c) (max (floor_of c) c.predicted)) claims
      in
      let need_sum = List.fold_left ( + ) 0 need in
      if need_sum <= total then (
        (* Plenty: everyone gets their demand; idle reservation is lent
           out weight-proportionally, up to each pool's cap. *)
        let surplus = total - need_sum in
        let wsum = List.fold_left (fun a c -> a +. c.weight) 0. claims in
        List.map2
          (fun c n ->
            let bonus =
              int_of_float (float_of_int surplus *. c.weight /. wsum)
            in
            min (cap_of c) (n + bonus))
          claims need)
      else
        (* Scarcity: guarantee the floors, then split what is left in
           proportion to weighted unmet demand. A deterministic second
           pass hands out the few bytes lost to rounding. *)
        let mins_sum = List.fold_left (fun a c -> a + floor_of c) 0 claims in
        let extra = max 0 (total - mins_sum) in
        let want = List.map2 (fun c n -> n - floor_of c) claims need in
        let xs = List.map2 (fun c w -> c.weight *. float_of_int w) claims want in
        let xsum = List.fold_left ( +. ) 0. xs in
        let give =
          if xsum <= 0. then List.map (fun _ -> 0) want
          else
            List.map2
              (fun w x ->
                min w (int_of_float (float_of_int extra *. x /. xsum)))
              want xs
        in
        let leftover =
          ref (extra - List.fold_left ( + ) 0 give)
        in
        let give =
          List.map2
            (fun w g ->
              let top_up = min !leftover (w - g) in
              leftover := !leftover - top_up;
              g + top_up)
            want give
        in
        List.map2 (fun c g -> floor_of c + g) claims give

type pool = {
  name : string;
  weight : float;
  min_share : float;
  max_share : float;
  used : unit -> int;
  demand : (unit -> int) option;
  set_budget : int -> unit;
  reclaim : int -> int;
  trend : Trend.t;
  floor_b : int;
  mutable budget : int;
  mutable offline : bool;
}

type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  a_total : int;
  mutable pools_rev : pool list;
  mutable task : Sim.Engine.handle option;
  mutable ticks : int;
  mutable scarce : bool;
  mutable rebalances : int;
  mutable moved_bytes : int;
  mutable reclaimed_bytes : int;
}

let create ?(trace = Obs.Trace.null) eng ~total =
  if total <= 0 then invalid_arg "Arbiter.create: total must be > 0";
  {
    eng;
    trace;
    a_total = total;
    pools_rev = [];
    task = None;
    ticks = 0;
    scarce = false;
    rebalances = 0;
    moved_bytes = 0;
    reclaimed_bytes = 0;
  }

let total t = t.a_total
let ticks t = t.ticks
let scarce t = t.scarce
let rebalances t = t.rebalances
let moved_bytes t = t.moved_bytes
let reclaimed_bytes t = t.reclaimed_bytes
let pools t = List.rev t.pools_rev
let budget p = p.budget
let floor_bytes p = p.floor_b
let offline p = p.offline

(* Marking a pool offline (its shard is down) strips its floor and cap at
   the next tick so the whole share is lent to survivors; marking it back
   online restores the registered claim and the normal shrink-before-grow
   apply claws the memory back from the borrowers. *)
let set_offline p v = p.offline <- v

let register t ~name ?(weight = 1.0) ?(min_share = 0.) ?(max_share = 1.0)
    ~budget ~used ?demand ~set_budget ~reclaim () =
  if t.task <> None then invalid_arg "Arbiter.register: arbiter already started";
  if weight <= 0. then invalid_arg "Arbiter.register: weight must be > 0";
  if min_share < 0. || min_share > 1. then
    invalid_arg "Arbiter.register: min_share must be in [0, 1]";
  if max_share < min_share || max_share > 1. then
    invalid_arg "Arbiter.register: need min_share <= max_share <= 1";
  let committed =
    List.fold_left (fun a p -> a +. p.min_share) min_share t.pools_rev
  in
  if committed > 1. +. 1e-9 then
    invalid_arg "Arbiter.register: cumulative min_share exceeds 1";
  if budget <= 0 then invalid_arg "Arbiter.register: budget must be > 0";
  let p =
    {
      name;
      weight;
      min_share;
      max_share;
      used;
      demand;
      set_budget;
      reclaim;
      trend = Trend.create ~window ();
      floor_b = int_of_float (min_share *. float_of_int t.a_total);
      budget;
      offline = false;
    }
  in
  t.pools_rev <- p :: t.pools_rev;
  p

let emit t ev =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid:"" ev

let tick t =
  let ps = pools t in
  if ps <> [] then begin
    t.ticks <- t.ticks + 1;
    let now = Sim.Engine.now t.eng in
    (* Sample each pool's demand (its broker's predicted aggregate when
       wired, usage otherwise), trend it, and predict at the horizon. *)
    let predicted =
      List.map
        (fun p ->
          if p.offline then 0
            (* Down pool: no demand, and no trend observation either — a
               run of zeros would otherwise poison the slope and predict
               negative demand for a while after the shard rejoins. *)
          else begin
            let u = p.used () in
            let d = match p.demand with Some f -> max u (f ()) | None -> u in
            Trend.observe p.trend ~time:now (float_of_int d);
            let pr =
              match Trend.predict p.trend ~horizon with
              | Some v -> int_of_float v
              | None -> d
            in
            max d pr
          end)
        ps
    in
    let claims =
      List.map2
        (fun p predicted ->
          if p.offline then
            (* Floor and cap both collapse to zero: the plan lends the
               pool's entire share out, and only the one-byte keepalive
               below stands between the dead manager and a zero budget. *)
            { weight = p.weight; min_share = 0.; max_share = 0.; predicted = 0 }
          else
            {
              weight = p.weight;
              min_share = p.min_share;
              max_share = p.max_share;
              predicted;
            })
        ps predicted
    in
    let need_sum = List.fold_left ( + ) 0 predicted in
    t.scarce <- need_sum > t.a_total;
    (* A floorless idle pool can plan to 0 bytes; managers need a
       positive budget, so never apply less than one byte. *)
    let budgets = List.map (max 1) (plan ~total:t.a_total claims) in
    let max_delta =
      List.fold_left2
        (fun a p b -> max a (abs (b - p.budget)))
        0 ps budgets
    in
    (* Applying only some moves could leave the grants summing past
       [total], so a rebalance inside the deadband is skipped whole. *)
    if max_delta > deadband then begin
      t.rebalances <- t.rebalances + 1;
      (* Shrink donors before growing borrowers: mid-apply, the sum of
         budgets then never exceeds [total]. *)
      List.iter2
        (fun p b ->
          if b < p.budget then begin
            p.budget <- b;
            p.set_budget b;
            let over = p.used () - b in
            if over > 0 then begin
              let freed = p.reclaim over in
              t.reclaimed_bytes <- t.reclaimed_bytes + freed;
              emit t
                (Obs.Event.Arbiter_reclaim { pool = p.name; wanted = over; freed })
            end
          end)
        ps budgets;
      List.iter2
        (fun p b ->
          if b > p.budget then begin
            t.moved_bytes <- t.moved_bytes + (b - p.budget);
            p.budget <- b;
            p.set_budget b
          end)
        ps budgets
    end;
    if Obs.Trace.enabled t.trace then
      emit t
        (Obs.Event.Arbiter_tick
           {
             scarce = t.scarce;
             total = t.a_total;
             pools =
               List.map2
                 (fun p pr ->
                   {
                     Obs.Event.pool = p.name;
                     pool_used = p.used ();
                     pool_predicted = pr;
                     pool_budget = p.budget;
                   })
                 ps predicted;
           })
  end

let start t =
  match t.task with
  | Some _ -> ()
  | None ->
      t.task <-
        Some (Sim.Engine.every t.eng ~interval (fun () -> tick t))

