(* One failure domain of a sharded deployment: a full server (manager,
   broker, gateways, plan cache) plus the lifecycle state a router needs
   to steer around it. The sim cannot kill an effect-suspended process,
   so a crash is modelled with epochs: queries in flight when the shard
   dies keep running, but their completions are counted as lost
   connections (the client saw the TCP reset, not the result) — which is
   exactly what a crashed server does to its clients. *)

type lifecycle = Up | Browned_out | Down | Recovering

let lifecycle_name = function
  | Up -> "up"
  | Browned_out -> "browned-out"
  | Down -> "down"
  | Recovering -> "recovering"

(* Stable numeric code for the Chrome trace's shard-state counter. *)
let lifecycle_code = function
  | Up -> 0
  | Browned_out -> 1
  | Down -> 2
  | Recovering -> 3

type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  s_name : string;
  index : int;
  dbms : Dbms.t;
  probation : float;
  mutable state : lifecycle;
  mutable epoch : int;
  mutable inflight : int;
  mutable accepted : int;
  mutable finished : int;
  mutable lost : int;
  mutable refused : int;
  mutable discarded : int;
      (* completions scrubbed from the books because the client already
         took another shard's answer (losing hedges) *)
  mutable crashes : int;
  mutable stalls : int;
  mutable misses_at_rejoin : int;
  mutable rejoined : bool;
  mutable arb_pool : Qcore.Arbiter.pool option;
}

let create ?(trace = Obs.Trace.null) ?(probation = 30.) eng ~index ~name cfg
    cat =
  let dbms = Dbms.create ~trace eng cfg cat in
  Dbms.start dbms;
  {
    eng;
    trace;
    s_name = name;
    index;
    dbms;
    probation;
    state = Up;
    epoch = 0;
    inflight = 0;
    accepted = 0;
    finished = 0;
    lost = 0;
    refused = 0;
    discarded = 0;
    crashes = 0;
    stalls = 0;
    misses_at_rejoin = 0;
    rejoined = false;
    arb_pool = None;
  }

let name t = t.s_name
let index t = t.index
let dbms t = t.dbms
let state t = t.state
let inflight t = t.inflight
let accepted t = t.accepted
let finished t = t.finished
let lost t = t.lost
let refused t = t.refused
let discarded t = t.discarded
let crashes t = t.crashes
let stalls t = t.stalls
let set_pool t p = t.arb_pool <- Some p
let pool t = t.arb_pool

let budget t =
  match t.arb_pool with
  | Some p -> Qcore.Arbiter.budget p
  | None -> (Dbms.config t.dbms).Config.memory_bytes

(* Cold-cache cost actually paid: plan-cache misses accumulated since the
   last rejoin, i.e. the recompilation storm the restarted shard rode
   out. Zero until a crash-restart cycle completes. *)
let recompiles_after_rejoin t =
  if not t.rejoined then 0
  else Plancache.Cache.misses (Dbms.plan_cache t.dbms) - t.misses_at_rejoin

let transition t to_state =
  if t.state <> to_state then begin
    let from_state = lifecycle_name t.state in
    t.state <- to_state;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid:""
        (Obs.Event.Shard_state
           { shard = t.s_name; from_state; to_state = lifecycle_name to_state })
  end

let set_offline t v =
  match t.arb_pool with
  | None -> ()
  | Some p -> Qcore.Arbiter.set_offline p v

let restart t =
  (* Rejoin honestly: whatever the crash flush and the arbiter's lending
     left in the caches stays gone; every parameterized template must
     recompile under the gateways. *)
  t.misses_at_rejoin <- Plancache.Cache.misses (Dbms.plan_cache t.dbms);
  t.rejoined <- true;
  transition t Recovering;
  set_offline t false;
  (* Warm-prime the rejoining cache (on with the defense stack): one
     spawned process recompiles the hottest templates, and the storming
     clients coalesce onto those priming compiles instead of stampeding
     the gateways. *)
  if Config.defense_on (Dbms.config t.dbms).Config.defense then
    Sim.Engine.spawn t.eng ~name:(t.s_name ^ ":warm-prime") (fun () ->
        Dbms.warm_prime t.dbms);
  let epoch0 = t.epoch in
  ignore
    (Sim.Engine.schedule t.eng ~delay:t.probation (fun () ->
         if t.state = Recovering && t.epoch = epoch0 then transition t Up))

let crash t ~restart_delay =
  if t.state <> Down then begin
    t.crashes <- t.crashes + 1;
    (* Every in-flight connection is lost: bump the epoch so completions
       started before this instant are discounted on return. *)
    t.epoch <- t.epoch + 1;
    transition t Down;
    (* The dead process's memory is gone. The plan cache is flushed
       directly — a protective floor shields it from the donor walk, but
       not from the process dying — then the donor chain drops the buffer
       pool, and the share is handed to the survivors. *)
    let cache = Dbms.plan_cache t.dbms in
    ignore (Plancache.Cache.shrink cache (Plancache.Cache.bytes cache));
    ignore (Dbms.reclaim t.dbms (Dbmem.Manager.used (Dbms.manager t.dbms)));
    set_offline t true;
    let epoch0 = t.epoch in
    ignore
      (Sim.Engine.schedule t.eng ~delay:restart_delay (fun () ->
           if t.state = Down && t.epoch = epoch0 then restart t))
  end

let stall t ~duration ~slow_factor =
  if t.state = Up || t.state = Recovering || t.state = Browned_out then begin
    t.stalls <- t.stalls + 1;
    transition t Browned_out;
    Bufpool.Disk.set_degradation (Dbms.disk t.dbms)
      ~throughput_factor:slow_factor ~extra_seek_s:0.;
    let epoch0 = t.epoch in
    ignore
      (Sim.Engine.schedule t.eng ~delay:duration (fun () ->
           if t.epoch = epoch0 && t.state = Browned_out then begin
             Bufpool.Disk.clear_degradation (Dbms.disk t.dbms);
             transition t Up
           end))
  end

let install_faults eng shards = function
  | [] -> ()
  | specs ->
      let n = Array.length shards in
      let hooks =
        {
          Faultsim.Injector.null_hooks with
          shard_crash =
            (fun ~shard ~restart_delay ->
              crash shards.(shard mod n) ~restart_delay);
          shard_stall =
            (fun ~shard ~duration ~slow_factor ->
              stall shards.(shard mod n) ~duration ~slow_factor);
        }
      in
      ignore
        (Faultsim.Injector.install eng
           ~rng:(Sim.Rng.split (Sim.Engine.rng eng))
           ~hooks specs)

(* A completion's booking tag, so a hedged dispatch whose answer the
   client never took can be scrubbed from the books with {!uncount}. *)
type booking = [ `Refused | `Lost | `Finished ]

let submit_tracked t q =
  match t.state with
  | Down ->
      t.refused <- t.refused + 1;
      ( Error
          (Health.Error.make ~detail:t.s_name Health.Error.Shard_unavailable),
        `Refused )
  | Up | Browned_out | Recovering ->
      let epoch0 = t.epoch in
      t.accepted <- t.accepted + 1;
      t.inflight <- t.inflight + 1;
      let r = Dbms.submit t.dbms q in
      t.inflight <- t.inflight - 1;
      if t.epoch <> epoch0 then begin
        (* The shard died while this query ran; whatever the engine
           computed, the client's connection is gone. *)
        t.lost <- t.lost + 1;
        ( Error
            (Health.Error.make
               ~detail:(t.s_name ^ " connection-lost")
               Health.Error.Shard_unavailable),
          `Lost )
      end
      else begin
        t.finished <- t.finished + 1;
        (r, `Finished)
      end

let submit t q = fst (submit_tracked t q)

(* Scrub a hedge loser's completion: the client took the other shard's
   answer, so this dispatch must not count as served work (or as a
   refusal) in the shard's books — [accepted = finished + lost] keeps
   holding because an accepted loser leaves both sides. *)
let uncount t (b : booking) =
  t.discarded <- t.discarded + 1;
  match b with
  | `Refused -> t.refused <- t.refused - 1
  | `Lost ->
      t.accepted <- t.accepted - 1;
      t.lost <- t.lost - 1
  | `Finished ->
      t.accepted <- t.accepted - 1;
      t.finished <- t.finished - 1

let sample t =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid:""
      (Obs.Event.Shard_sample
         {
           shard = t.s_name;
           s_state = lifecycle_code t.state;
           s_inflight = t.inflight;
           s_budget = budget t;
         })

