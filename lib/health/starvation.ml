(* Sampling period, seconds. *)
let audit_s = 60.0

(* Consecutive no-progress samples after which a gate is starved. *)
let stall_audits = 3

(* Slots added per intervention. *)
let widen_by = 1

(* Most slots a gate may be widened above its base width. *)
let max_widen = 2

type gate = {
  gname : string;
  queued : unit -> int;
  admitted : unit -> int;
  slots : unit -> int;
  set_slots : int -> unit;
  base : int;
  mutable last_admitted : int;
  mutable stalled : int;  (* consecutive audits with waiters and no grants *)
}

type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  mutable gates : gate list;
  mutable widen_total : int;
}

let create ?(trace = Obs.Trace.null) eng =
  { eng; trace; gates = []; widen_total = 0 }

let add_gate t ~name ~queued ~admitted ~slots ~set_slots =
  let g =
    {
      gname = name;
      queued;
      admitted;
      slots;
      set_slots;
      base = slots ();
      last_admitted = admitted ();
      stalled = 0;
    }
  in
  t.gates <- t.gates @ [ g ]

let emit t event =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid:"" event

let audit_gate t g =
  let admitted = g.admitted () in
  let progressed = admitted <> g.last_admitted in
  g.last_admitted <- admitted;
  if g.queued () = 0 then (
    g.stalled <- 0;
    (* Queue drained: give back any emergency slots. *)
    if g.slots () > g.base then (
      g.set_slots g.base;
      emit t (Obs.Event.Gate_widen { gate = g.gname; slots = g.base })))
  else if progressed then g.stalled <- 0
  else begin
    g.stalled <- g.stalled + 1;
    if g.stalled >= stall_audits then begin
      g.stalled <- 0;
      let cur = g.slots () in
      let widened = min (cur + widen_by) (g.base + max_widen) in
      if widened > cur then (
        g.set_slots widened;
        t.widen_total <- t.widen_total + 1;
        emit t (Obs.Event.Gate_widen { gate = g.gname; slots = widened }))
    end
  end

let start t =
  ignore
    (Sim.Engine.every t.eng ~start:audit_s ~interval:audit_s
       (fun () -> List.iter (audit_gate t) t.gates))

let widen_total t = t.widen_total

let widened_now t =
  List.filter_map
    (fun g ->
      let extra = g.slots () - g.base in
      if extra > 0 then Some (g.gname, extra) else None)
    t.gates
