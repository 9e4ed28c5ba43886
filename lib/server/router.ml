(* Health-aware placement across shards.

   Placement is a consistent-hash ring over template names: each shard
   owns ~[vnodes] points, a template walks the ring from its own hash and
   takes the first healthy shard. The walk skips [Down] shards and shards
   whose circuit breaker refuses the arrival (an overflow "spill" — the
   template runs off its home shard until the primary heals, then snaps
   back with no rebalancing step, because the ring never changed).

   All routing randomness (retry jitter) comes from one dedicated split
   stream, so adding a router to a simulation perturbs nothing else. *)

(* Ring points per shard: the placement granularity. *)
let vnodes = 40

(* Re-routes after a retryable failure. *)
let max_retries = 2

(* The pause before each re-route. *)
let backoff = { Resilience.base_s = 1.0; jitter_frac = 0.2 }

(* Seconds before a submission to a browned-out shard is hedged. *)
let hedge_after = 20.

type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  hedge : bool;
  shards : Shard.t array;
  breakers : Health.Breaker.t;  (* keyed by shard name *)
  rng : Sim.Rng.t;
  ring : (int * int) array;  (* (point, shard index), sorted by point *)
  latency : Obs.Hist.t;  (* microseconds, submissions after measure_from *)
  mutable measure_from : float;
  mutable submitted : int;
  mutable ok : int;
  mutable failed : int;
  mutable rejected : int;
  mutable spills : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable retries : int;
  mutable budget_denials : int;
  mutable in_flight : int;
}

(* FNV-1a with a splitmix64 finalizer, folded to an OCaml int. The raw
   FNV accumulator barely avalanches short strings that share a prefix
   ("shardN#v", "pNNN"), which clusters every vnode of a shard into one
   arc of the ring; the finalizer spreads them uniformly. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  let m = Int64.logxor !h (Int64.shift_right_logical !h 30) in
  let m = Int64.mul m 0xbf58476d1ce4e5b9L in
  let m = Int64.logxor m (Int64.shift_right_logical m 27) in
  let m = Int64.mul m 0x94d049bb133111ebL in
  let m = Int64.logxor m (Int64.shift_right_logical m 31) in
  Int64.to_int (Int64.shift_right_logical m 1)

let build_ring shards =
  let points =
    Array.init (Array.length shards * vnodes) (fun i ->
        let s = i / vnodes and v = i mod vnodes in
        (fnv1a (Printf.sprintf "%s#%d" (Shard.name shards.(s)) v), s))
  in
  Array.sort compare points;
  points

let create ?(trace = Obs.Trace.null) ?(hedge = false) eng shards =
  if Array.length shards = 0 then invalid_arg "Router.create: no shards";
  {
    eng;
    trace;
    hedge;
    shards;
    breakers = Health.Breaker.create ~trace eng;
    rng = Sim.Rng.split (Sim.Engine.rng eng);
    ring = build_ring shards;
    latency = Obs.Hist.create ();
    measure_from = 0.;
    submitted = 0;
    ok = 0;
    failed = 0;
    rejected = 0;
    spills = 0;
    hedges = 0;
    hedge_wins = 0;
    retries = 0;
    budget_denials = 0;
    in_flight = 0;
  }

let set_measure_from t v = t.measure_from <- v

(* Shard indices in ring-walk order from the template's hash: the first
   entry is the home shard, the rest the overflow order. *)
let preference t ~template =
  let h = fnv1a template in
  let n = Array.length t.ring in
  let lo =
    (* First ring point at or past [h], wrapping to 0. *)
    let rec bsearch lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst t.ring.(mid) < h then bsearch (mid + 1) hi else bsearch lo mid
    in
    let i = bsearch 0 n in
    if i = n then 0 else i
  in
  let nshards = Array.length t.shards in
  let seen = Array.make nshards false in
  let order = ref [] in
  let found = ref 0 in
  let i = ref lo in
  while !found < nshards do
    let s = snd t.ring.(!i mod n) in
    if not seen.(s) then begin
      seen.(s) <- true;
      order := s :: !order;
      incr found
    end;
    incr i
  done;
  List.rev !order

(* First routable shard in preference order: not [Down], breaker admits.
   Admission is stateful (a half-open breaker marks the arrival as its
   probe), so it is only asked once we are about to use the shard. *)
let pick t ~template =
  let rec go ~spill = function
    | [] -> None
    | idx :: rest ->
        let sh = t.shards.(idx) in
        if Shard.state sh = Shard.Down then go ~spill:true rest
        else if Health.Breaker.admit t.breakers ~key:(Shard.name sh) then
          Some (sh, spill)
        else go ~spill:true rest
  in
  go ~spill:false (preference t ~template)

let emit_route t ~shard ~template ~spill ~hedged =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid:""
      (Obs.Event.Route { shard; template; spill; hedged })

(* A shard that is up but browned out gets a hedge: the query runs on the
   slow primary and, [hedge_after] seconds later (if still unresolved),
   also on the healthiest alternate; first completion wins and the loser's
   result is dropped (its work is genuinely wasted, as with real hedged
   requests). Returns the winning shard's name with the result so breaker
   accounting lands on the shard that produced the outcome. *)
let alternate t ~except =
  let best = ref None in
  Array.iter
    (fun sh ->
      if Shard.index sh <> except && Shard.state sh = Shard.Up then
        match !best with None -> best := Some sh | Some _ -> ())
    t.shards;
  !best

let hedged_submit t sh ~template q =
  let settled = ref false in
  Sim.Engine.suspend (fun wake ->
      let finish who sh' (r, booking) =
        if not !settled then begin
          settled := true;
          if who = `Hedge then t.hedge_wins <- t.hedge_wins + 1;
          wake (Shard.name sh', r)
        end
        else begin
          (* The losing side of the hedge: the client already took the
             other completion, so this one must be cancelled out of the
             books. The shard's throughput counters are uncounted (a
             duplicate completion is not served work), and — only for the
             primary, the one shard [pick] actually admitted — the
             breaker's half-open probe slot is handed back, else a hedge
             that outruns its probe would wedge the breaker half-open
             with a phantom probe in flight forever. The alternate was
             never admitted, so touching its breaker would release
             someone else's probe. *)
          Shard.uncount sh' booking;
          if who = `Primary then
            Health.Breaker.release_probe t.breakers ~key:(Shard.name sh')
        end
      in
      Sim.Engine.spawn t.eng
        ~name:("route:" ^ Shard.name sh)
        (fun () -> finish `Primary sh (Shard.submit_tracked sh q));
      ignore
        (Sim.Engine.schedule t.eng ~delay:hedge_after (fun () ->
             if not !settled then
               match alternate t ~except:(Shard.index sh) with
               | None -> ()
               | Some alt ->
                   t.hedges <- t.hedges + 1;
                   emit_route t ~shard:(Shard.name alt) ~template
                     ~spill:false ~hedged:true;
                   Sim.Engine.spawn t.eng
                     ~name:("hedge:" ^ Shard.name alt)
                     (fun () -> finish `Hedge alt (Shard.submit_tracked alt q)))))

let record_outcome t ~shard_name r =
  match r with
  | Ok () -> Health.Breaker.record_success t.breakers ~key:shard_name
  | Error (e : Health.Error.t) ->
      (* A lost connection or refused placement is the shard's fault and
         counts toward its breaker even though the taxonomy files it as
         informational back-pressure for the client. *)
      if
        Metrics.is_hard_error e.code
        || e.code = Health.Error.Shard_unavailable
      then Health.Breaker.record_failure t.breakers ~key:shard_name
      else Health.Breaker.release_probe t.breakers ~key:shard_name

let rec attempt t q ~template ~budget ~attempt_no =
  match pick t ~template with
  | None ->
      t.rejected <- t.rejected + 1;
      Error
        (Health.Error.make ~detail:"no shard available"
           Health.Error.Shard_unavailable)
  | Some (sh, spill) ->
      if spill then t.spills <- t.spills + 1;
      emit_route t ~shard:(Shard.name sh) ~template ~spill ~hedged:false;
      let shard_name, r =
        if t.hedge && Shard.state sh = Shard.Browned_out then
          hedged_submit t sh ~template q
        else (Shard.name sh, Shard.submit sh q)
      in
      record_outcome t ~shard_name r;
      (match r with
      | Ok () -> Ok ()
      | Error e
        when Health.Error.retryable e.Health.Error.code
             && attempt_no <= max_retries ->
          (* The retry budget is spent *before* the backoff: a client out
             of tokens fails fast instead of joining the retry storm, and
             the queue behind it drains by one instead of growing by one.
             The original error's code survives in the detail so the
             client can still see what it was retrying. *)
          let may_retry =
            match budget with
            | None -> true
            | Some b ->
                let ok = Resilience.Budget.try_spend b in
                if not ok then t.budget_denials <- t.budget_denials + 1;
                ok
          in
          if not may_retry then
            Error
              (Health.Error.make
                 ~detail:
                   ("gave up retrying "
                   ^ Health.Error.code_name e.Health.Error.code)
                 Health.Error.Retry_budget_exhausted)
          else begin
            t.retries <- t.retries + 1;
            Sim.Engine.sleep
              (Resilience.backoff backoff ~attempt:attempt_no
                 ~rng:t.rng);
            attempt t q ~template ~budget ~attempt_no:(attempt_no + 1)
          end
      | Error _ -> r)

let submit ?budget t q =
  let template = Dbms.template_of_qid q.Optimizer.Query.qid in
  let start = Sim.Engine.now t.eng in
  t.submitted <- t.submitted + 1;
  t.in_flight <- t.in_flight + 1;
  let r = attempt t q ~template ~budget ~attempt_no:1 in
  t.in_flight <- t.in_flight - 1;
  (match r with
  | Ok () ->
      t.ok <- t.ok + 1;
      Option.iter Resilience.Budget.earn budget
  | Error _ -> t.failed <- t.failed + 1);
  if start >= t.measure_from then
    Obs.Hist.add t.latency
      (int_of_float ((Sim.Engine.now t.eng -. start) *. 1e6));
  r

let submit_catch ?budget t q =
  match submit ?budget t q with
  | Ok () -> Ok ()
  | Error e -> Error (Health.Error.to_string e)

let shards t = t.shards
let latency t = t.latency
let submitted t = t.submitted
let ok t = t.ok
let failed t = t.failed
let rejected t = t.rejected
let spills t = t.spills
let hedges t = t.hedges
let hedge_wins t = t.hedge_wins
let retries t = t.retries
let budget_denials t = t.budget_denials
let in_flight t = t.in_flight

