(* Audit period, seconds. *)
let poll_s = 30.0

(* Silence before a session is softened, seconds. *)
let stale_after_s = 240.0

type session = {
  qid : string;
  id : int;
  seng : Sim.Engine.t;
  mutable last_beat : float;
  mutable soft : bool;
}

type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  sessions : (int, session) Hashtbl.t;
  mutable next_id : int;
  mutable stale_total : int;
}

let create ?(trace = Obs.Trace.null) eng =
  {
    eng;
    trace;
    sessions = Hashtbl.create 64;
    next_id = 0;
    stale_total = 0;
  }

let emit t qid event =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid event

let audit t =
  let now = Sim.Engine.now t.eng in
  Hashtbl.iter
    (fun _ s ->
      let age = now -. s.last_beat in
      if age >= stale_after_s && not s.soft then (
        s.soft <- true;
        t.stale_total <- t.stale_total + 1;
        emit t s.qid (Obs.Event.Heartbeat_stale { age })))
    t.sessions

let start t =
  ignore
    (Sim.Engine.every t.eng ~start:poll_s ~interval:poll_s
       (fun () -> audit t))

let watch t ~qid =
  let id = t.next_id in
  t.next_id <- id + 1;
  let s =
    {
      qid;
      id;
      seng = t.eng;
      last_beat = Sim.Engine.now t.eng;
      soft = false;
    }
  in
  Hashtbl.replace t.sessions id s;
  s

let beat s =
  s.last_beat <- Sim.Engine.now s.seng;
  (* A fresh sign of life un-softens the query. *)
  s.soft <- false

let unwatch t s = Hashtbl.remove t.sessions s.id
let softened s = s.soft
let watched t = Hashtbl.length t.sessions
let stale_total t = t.stale_total
