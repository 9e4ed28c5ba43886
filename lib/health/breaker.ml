(* Consecutive hard failures that trip a closed breaker open. *)
let failure_threshold = 3

(* Open duration before the half-open probe, seconds. *)
let cooldown_s = 60.0

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

(* Internal per-key cell. [Open] remembers when it tripped so the
   cooldown can be checked lazily at the next admission — no timer is
   needed and an idle open breaker costs nothing. *)
type cell = {
  mutable cstate : state;
  mutable failures : int;  (* consecutive hard failures while closed *)
  mutable opened_at : float;  (* valid when cstate = Open *)
  mutable probe_out : bool;  (* half-open: the single probe is in flight *)
}

type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  cells : (string, cell) Hashtbl.t;
}

let create ?(trace = Obs.Trace.null) eng =
  { eng; trace; cells = Hashtbl.create 16 }

let cell t key =
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c =
        { cstate = Closed; failures = 0; opened_at = 0.; probe_out = false }
      in
      Hashtbl.add t.cells key c;
      c

let emit t key event =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid:key event

(* Lazily move an expired-open cell to half-open. *)
let refresh t (c : cell) =
  if
    c.cstate = Open
    && Sim.Engine.now t.eng -. c.opened_at >= cooldown_s
  then (
    c.cstate <- Half_open;
    c.probe_out <- false)

let admit t ~key =
  let c = cell t key in
  refresh t c;
  match c.cstate with
  | Closed -> true
  | Half_open when not c.probe_out ->
      c.probe_out <- true;
      true
  | Half_open | Open -> false

let trip t key (c : cell) =
  c.cstate <- Open;
  c.opened_at <- Sim.Engine.now t.eng;
  c.failures <- 0;
  c.probe_out <- false;
  emit t key (Obs.Event.Breaker_open { shard = key })

let record_success t ~key =
  let c = cell t key in
  refresh t c;
  match c.cstate with
  | Closed -> c.failures <- 0
  | Half_open ->
      c.cstate <- Closed;
      c.failures <- 0;
      c.probe_out <- false;
      emit t key (Obs.Event.Breaker_close { shard = key })
  | Open ->
      (* A query admitted before the trip finished late; its success says
         nothing about the fault that opened the breaker. *)
      ()

let record_failure t ~key =
  let c = cell t key in
  refresh t c;
  match c.cstate with
  | Closed ->
      c.failures <- c.failures + 1;
      if c.failures >= failure_threshold then trip t key c
  | Half_open ->
      (* Only the probe's own failure re-trips. A stale hard failure from
         a query admitted before the trip says nothing about recovery —
         ignoring it mirrors the [Open] case below. *)
      if c.probe_out then trip t key c
  | Open -> ()

let release_probe t ~key =
  match Hashtbl.find_opt t.cells key with
  | None -> ()
  | Some c ->
      refresh t c;
      (* The probe was admitted but proved nothing (refused downstream,
         or its answer was dropped). Returning the slot keeps the breaker
         testable: the next arrival becomes the probe instead of the cell
         wedging half-open with a phantom probe in flight. Counting it as
         a failure would re-open a breaker that never got to prove
         itself. *)
      if c.cstate = Half_open && c.probe_out then c.probe_out <- false

let state t ~key =
  match Hashtbl.find_opt t.cells key with
  | None -> Closed
  | Some c ->
      refresh t c;
      c.cstate
