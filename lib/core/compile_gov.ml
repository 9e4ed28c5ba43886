type pressure = Calm | Elevated | Critical

let pressure_name = function
  | Calm -> "calm"
  | Elevated -> "elevated"
  | Critical -> "critical"

(* Seconds a monitor's queue must stand before the adaptive flip. *)
let lifo_after_s = 20.

type t = {
  geng : Sim.Engine.t;
  gtrace : Obs.Trace.t;
  gclerk : Dbmem.Manager.clerk;
  config : Throttle_config.t;
  levels : Throttle_config.level array;
  gmonitors : Monitor.t array;
  counts : int array; (* counts.(i): sessions holding exactly i monitors *)
  mutable target : int; (* latest broker target for compile memory, 0 = unknown *)
  thresholds : int array; (* thresholds.(i): monitor i's entry threshold *)
  mutable press : pressure;
  genabled : bool;
  mutable adaptive_lifo : bool; (* flip FIFO->LIFO under sustained standing *)
  standing_since : float array; (* per monitor; nan = queue not standing *)
  mutable lifo_shifts : int;
}

type session = {
  gov : t;
  sqid : string;
  mutable susage : int;
  mutable speak : int;
  mutable held : int;
  mutable finished : bool;
}

(* Entry threshold for monitor [j] on its own. The first monitor's
   threshold is always static (it exists to let small diagnostic queries
   through unthrottled); later ones follow the paper's [target * F / S]
   rule when dynamic thresholds are on and a broker target is known. [S]
   is the population of the category directly below the monitor. *)
let level_threshold t j =
  let l = t.levels.(j) in
  if j = 0 || (not t.config.Throttle_config.dynamic) || t.target <= 0 then
    l.Throttle_config.base_threshold
  else
    Throttle_config.dynamic_threshold l ~target:t.target
      ~population:t.counts.(j)

(* Every allocation reads the ladder's thresholds, and they change only
   with [target] or a population, so they are recomputed there: in
   [begin_compile], [promote], [end_compile] and [on_notification].
   Monotonicity down the ladder is enforced so extreme populations can
   never invert it: each threshold is at least twice the one before. *)
let refresh_thresholds t =
  let thr = t.thresholds in
  thr.(0) <- level_threshold t 0;
  for j = 1 to Array.length thr - 1 do
    let v = level_threshold t j and floor = 2 * thr.(j - 1) in
    thr.(j) <- (if v >= floor then v else floor)
  done

let create eng _manager ?(trace = Obs.Trace.null) ~clerk ~cpus ~config
    ~enabled () =
  Throttle_config.validate config ~cpus;
  let levels = Array.of_list config.Throttle_config.levels in
  let gmonitors =
    Array.map
      (fun (l : Throttle_config.level) ->
        Monitor.create eng ~trace ~name:l.lname
          ~slots:(Throttle_config.slot_count l.slots ~cpus)
          ~timeout:l.timeout ())
      levels
  in
  let t =
    {
      geng = eng;
      gtrace = trace;
      gclerk = clerk;
      config;
      levels;
      gmonitors;
      counts = Array.make (Array.length levels + 1) 0;
      target = 0;
      thresholds = Array.make (Array.length levels) 0;
      press = Calm;
      genabled = enabled;
      adaptive_lifo = false;
      standing_since = Array.make (Array.length levels) Float.nan;
      lifo_shifts = 0;
    }
  in
  refresh_thresholds t;
  t

let threshold t i = t.thresholds.(i)
let set_adaptive_lifo t on = t.adaptive_lifo <- on
let lifo_shifts t = t.lifo_shifts

let emit t ~qid event =
  if Obs.Trace.enabled t.gtrace then
    Obs.Trace.emit t.gtrace ~time:(Sim.Engine.now t.geng) ~qid event

let begin_compile ?(qid = "") t =
  t.counts.(0) <- t.counts.(0) + 1;
  refresh_thresholds t;
  emit t ~qid Obs.Event.Compile_begin;
  { gov = t; sqid = qid; susage = 0; speak = 0; held = 0; finished = false }

let promote s =
  let t = s.gov in
  t.counts.(s.held) <- t.counts.(s.held) - 1;
  s.held <- s.held + 1;
  t.counts.(s.held) <- t.counts.(s.held) + 1;
  refresh_thresholds t

(* Adaptive queue discipline: track how long monitor [i]'s queue has been
   continuously standing (checked lazily at every acquire attempt — no
   timer). Past [lifo_after_s] of standing, flip to newest-first: the
   newest waiter is the one whose caller has not yet given up, so serving
   it first turns a post-storm backlog into completed work instead of a
   parade of timeouts. The queue draining flips it straight back. *)
let adapt_queue t i =
  if t.adaptive_lifo then begin
    let m = t.gmonitors.(i) in
    let now = Sim.Engine.now t.geng in
    if Monitor.queued m > 0 then begin
      if Float.is_nan t.standing_since.(i) then t.standing_since.(i) <- now
      else if
        now -. t.standing_since.(i) >= lifo_after_s
        && Monitor.discipline m = Sim.Resource.Fifo
      then begin
        Monitor.set_discipline m Sim.Resource.Lifo;
        t.lifo_shifts <- t.lifo_shifts + 1;
        emit t ~qid:"gov"
          (Obs.Event.Queue_shift { gate = Monitor.name m; lifo = true })
      end
    end
    else begin
      t.standing_since.(i) <- Float.nan;
      if Monitor.discipline m = Sim.Resource.Lifo then begin
        Monitor.set_discipline m Sim.Resource.Fifo;
        emit t ~qid:"gov"
          (Obs.Event.Queue_shift { gate = Monitor.name m; lifo = false })
      end
    end
  end

(* Acquire every monitor whose threshold [new_usage] crosses, in order.
   Waiters are served by progress: among compilations blocked at the same
   monitor, the one that has already allocated the most memory goes first
   ("gives preference to compilations that have made the most progress",
   §4.1), with FIFO among equals. *)
let rec pass_gates s new_usage =
  let t = s.gov in
  if s.held >= Array.length t.gmonitors then Ok ()
  else if new_usage <= threshold t s.held then Ok ()
  else begin
    let i = s.held in
    adapt_queue t i;
    let m = t.gmonitors.(i) in
    let priority = -(new_usage / (1 lsl 20)) in
    match Monitor.acquire m ~priority ~qid:s.sqid () with
    | Error `Timeout ->
        (* Timed out queued for a compilation gateway: SQL Server 8645. *)
        Error
          (Health.Error.make ~detail:(Monitor.name m)
             Health.Error.Memory_wait_timeout)
    | Ok () ->
        promote s;
        pass_gates s new_usage
  end

let alloc s n =
  if s.finished then invalid_arg "Compile_gov.alloc: session finished";
  if n < 0 then invalid_arg "Compile_gov.alloc: negative";
  let t = s.gov in
  let new_usage = s.susage + n in
  let gate_result = if t.genabled then pass_gates s new_usage else Ok () in
  match gate_result with
  | Error _ as e -> e
  | Ok () -> (
      match Dbmem.Manager.alloc t.gclerk n with
      | Error `Out_of_memory ->
          (* Physical allocation failed even after donor shrink: 701. *)
          Error
            (Health.Error.make ~detail:"compile"
               Health.Error.Insufficient_memory)
      | Ok () ->
          s.susage <- new_usage;
          if new_usage > s.speak then s.speak <- new_usage;
          (* Tested before the record is built: [emit]'s own test comes
             after its argument is allocated. *)
          if Obs.Trace.enabled t.gtrace then
            emit t ~qid:s.sqid
              (Obs.Event.Compile_alloc { bytes = n; usage = new_usage });
          Ok ())

(* Bytes below the next gate's threshold (all of them past the last
   gate or with the governor off), capped by the clerk's credit. Every
   input changes only while this session's process is suspended. *)
let credit s =
  let t = s.gov in
  if Obs.Trace.enabled t.gtrace then 0
  else begin
    let gate =
      if t.genabled && s.held < Array.length t.gmonitors then
        Int.max 0 (threshold t s.held - s.susage)
      else max_int
    in
    Int.min gate (Dbmem.Manager.credit t.gclerk)
  end

let free s n =
  if s.finished then invalid_arg "Compile_gov.free: session finished";
  if n < 0 || n > s.susage then invalid_arg "Compile_gov.free: bad amount";
  s.susage <- s.susage - n;
  Dbmem.Manager.free s.gov.gclerk n

let end_compile s =
  if not s.finished then begin
    let t = s.gov in
    s.finished <- true;
    (* Release in reverse acquisition order. *)
    for i = s.held - 1 downto 0 do
      Monitor.release ~qid:s.sqid t.gmonitors.(i)
    done;
    t.counts.(s.held) <- t.counts.(s.held) - 1;
    refresh_thresholds t;
    s.held <- 0;
    Dbmem.Manager.free t.gclerk s.susage;
    s.susage <- 0;
    if Obs.Trace.enabled t.gtrace then
      emit t ~qid:s.sqid (Obs.Event.Compile_end { peak = s.speak })
  end

let usage s = s.susage
let peak s = s.speak
let level s = s.held

let on_notification t (n : Broker.notification) =
  t.target <- n.Broker.target;
  refresh_thresholds t;
  (* Three-rung pressure ladder. [Critical] — best-plan-so-far / greedy
     fallback territory — is reserved for *predicted exhaustion*, not
     routine pressure: the forecast must overshoot the target
     substantially, else every compilation on a busy system would degrade
     to its greedy plan. [Elevated] is any shrink demand. *)
  t.press <- (match n.Broker.verdict with
    | Broker.Must_shrink ->
        if n.Broker.predicted > 2 * max 1 n.Broker.target then Critical
        else Elevated
    | Broker.Hold_rate | Broker.Can_grow -> Calm)

let pressure t = if t.genabled then t.press else Calm
let should_stop_early t = t.genabled && t.press = Critical
let population t i = t.counts.(i)
let monitors t = t.gmonitors

let pp ppf t =
  Format.fprintf ppf "@[<v>compile governor (enabled=%b, target=%a, pressure=%s)@,"
    t.genabled Dbmem.Units.pp_bytes t.target (pressure_name t.press);
  Array.iteri
    (fun i m ->
      Format.fprintf ppf "  %-8s thr=%-12s slots=%d in_use=%d queued=%d timeouts=%d@,"
        (Monitor.name m)
        (Dbmem.Units.bytes_to_string (threshold t i))
        (Monitor.slots m) (Monitor.in_use m) (Monitor.queued m)
        (Monitor.timeouts m))
    t.gmonitors;
  Format.fprintf ppf "  populations:";
  Array.iteri (fun i c -> Format.fprintf ppf " L%d=%d" i c) t.counts;
  Format.fprintf ppf "@,@]"
