(* A job's two floats live in a flat all-float record, so the per-slice
   updates are unboxed stores. *)
type span = { mutable remaining : float; mutable q : float }

(* Jobs are pooled: each is built once, with its slice-end closure, and
   serves one [busy] call after another. *)
type job = {
  span : span;
  mutable resume : unit -> unit;  (* continues the parked process *)
  fire : unit -> unit;  (* the job's slice-end event *)
}

type t = {
  eng : Sim.Engine.t;
  slice : float;
  created_at : float;
  mutable free : int;  (* idle cores; > 0 only while [runq] is empty *)
  runq : job Sim.Fifo.t;
  spare : job Sim.Fifo.t;  (* jobs between [busy] calls *)
  busy_total : Sim.Engine.fcell;
  delay : Sim.Engine.fcell;  (* staging cell for [Engine.after] *)
  demand : Sim.Engine.fcell;  (* the parking call's [seconds] *)
  mutable parker : Sim.Engine.parker;
}

let dummy = { span = { remaining = 0.; q = 0. }; resume = ignore; fire = ignore }

(* Run [j]'s next slice on a core it already holds. [min slice
   remaining], written as a comparison (the same value for the positive
   non-NaN operands here). *)
let start t j =
  let s = j.span in
  s.q <- (if s.remaining < t.slice then s.remaining else t.slice);
  t.delay.fc <- s.q;
  Sim.Engine.after t.eng t.delay j.fire

(* A core falls free: the head of the run queue gets it, or it idles. *)
let release t =
  if Sim.Fifo.is_empty t.runq then t.free <- t.free + 1
  else start t (Sim.Fifo.pop t.runq)

let slice_end t j =
  let s = j.span in
  t.busy_total.fc <- t.busy_total.fc +. s.q;
  s.remaining <- s.remaining -. s.q;
  if s.remaining > 1e-9 then
    if Sim.Fifo.is_empty t.runq then start t j
    else begin
      (* Round robin: the head takes the core, [j] goes to the back. *)
      let h = Sim.Fifo.pop t.runq in
      Sim.Fifo.push t.runq j;
      start t h
    end
  else begin
    release t;
    Sim.Fifo.push t.spare j;
    j.resume ()
  end

(* [busy]'s park: a spare job (or a new one) takes the staged demand
   and a core, or queues. *)
let enqueue t resume =
  let j =
    if Sim.Fifo.is_empty t.spare then begin
      let rec j =
        {
          span = { remaining = 0.; q = 0. };
          resume;
          fire = (fun () -> slice_end t j);
        }
      in
      j
    end
    else Sim.Fifo.pop t.spare
  in
  j.span.remaining <- t.demand.fc;
  j.resume <- resume;
  if t.free > 0 then begin
    t.free <- t.free - 1;
    start t j
  end
  else Sim.Fifo.push t.runq j

let create eng ~cores ?(slice = 0.25) () =
  if cores < 1 then invalid_arg "Cpu.create: cores";
  if slice <= 0. then invalid_arg "Cpu.create: slice";
  let t =
    {
      eng;
      slice;
      created_at = Sim.Engine.now eng;
      free = cores;
      runq = Sim.Fifo.create ~dummy ();
      spare = Sim.Fifo.create ~dummy ();
      busy_total = { fc = 0. };
      delay = { fc = 0. };
      demand = { fc = 0. };
      parker = Sim.Engine.parker ignore;
    }
  in
  t.parker <- Sim.Engine.parker (enqueue t);
  t

let busy t seconds =
  if seconds < 0. then invalid_arg "Cpu.busy: negative";
  if seconds > 1e-9 then
    if t.free > 0 && seconds <= t.slice then begin
      (* One slice on an idle core: no job, just a sleep. *)
      t.free <- t.free - 1;
      Sim.Engine.sleep seconds;
      t.busy_total.fc <- t.busy_total.fc +. seconds;
      release t
    end
    else begin
      (* The job stays parked across all its slices; each slice end is
         one event, and the last resumes the process inside it. *)
      t.demand.fc <- seconds;
      Sim.Engine.park_with t.parker
    end

let busy_seconds t = t.busy_total.fc

let utilization t =
  let elapsed = Sim.Engine.now t.eng -. t.created_at in
  if elapsed <= 0. then 0. else t.busy_total.fc /. elapsed

let queued t = Sim.Fifo.length t.runq
