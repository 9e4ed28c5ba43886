type handle = { mutable hcancelled : bool }

(* Internal schedules (sleep/suspend resumptions, spawns, periodic
   rearms) never expose their handle and never cancel, so they all share
   this one immortal handle instead of allocating one per event. Public
   [schedule]/[every] still hand out fresh handles — a caller may hold a
   handle arbitrarily long, so those are never pooled. *)
let anon_hdl = { hcancelled = false }

let noop () = ()

(* A single-field float record is stored flat (the all-float record
   representation), so updating it is a plain unboxed store. A ['a ref]
   would NOT do: the polymorphic ref's field is boxed, and every [:=] of
   a float allocates. The engine clock and the push staging cell below
   are the two floats written on every event. *)
type fcell = { mutable fc : float }

(* The event queue is a binary min-heap over (time, seq) kept as parallel
   arrays — structure-of-arrays instead of a heap of event records. Times
   live in a float array (unboxed), seqs in an int array, so pushing an
   event performs no allocation and no write barrier for the key fields;
   only the handle/closure columns are pointer stores. A first cut pooled
   whole mutable event records through a freelist instead; it halved
   allocation but ran ~25% slower than this layout, because every field
   store into a recycled (old-generation) record paid caml_modify and
   seeded the minor-GC remembered set with young closures and float
   boxes. Flat columns pay neither. [seq] breaks ties FIFO; it is unique
   per push, so (time, seq) is a total order and the pop sequence is
   independent of the heap's internal layout. *)
type t = {
  now : fcell;  (* flat: updating the clock each event allocates
                   nothing, unlike a mutable float field of this mixed
                   record *)
  mutable seq : int;
  mutable q_time : float array;
  mutable q_seq : int array;
  mutable q_hdl : handle array;
  mutable q_fn : (unit -> unit) array;
  mutable q_size : int;
  push_time : fcell;  (* see [q_push] *)
  root_rng : Rng.t;
  mutable events : int;
  mutable failed : (string * exn * float) list;  (* see [failures] *)
}

exception Process_failed of { name : string; time : float; exn : exn }

let () =
  Printexc.register_printer (function
    | Process_failed { name; time; exn } ->
        Some
          (Printf.sprintf "sim process %S failed at t=%.3f: %s" name time
             (Printexc.to_string exn))
    | _ -> None)

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Park : ((unit -> unit) -> unit) -> unit Effect.t

type parker = unit Effect.t

(* A long experiment keeps thousands of timers in flight (one per client
   plus monitors and faults); pre-size past the doubling ramp. *)
let initial_capacity = 4096

let create ?(seed = 42) () =
  {
    now = { fc = 0. };
    seq = 0;
    q_time = Array.make initial_capacity 0.;
    q_seq = Array.make initial_capacity 0;
    q_hdl = Array.make initial_capacity anon_hdl;
    q_fn = Array.make initial_capacity noop;
    q_size = 0;
    push_time = { fc = 0. };
    root_rng = Rng.create seed;
    events = 0;
    failed = [];
  }

let now t = t.now.fc
let now_into t cell = cell.fc <- t.now.fc
let rng t = t.root_rng
let events_executed t = t.events
let failures t = t.failed

let q_grow t =
  let cap = Array.length t.q_time in
  let cap' = 2 * cap in
  let time' = Array.make cap' 0. in
  let seq' = Array.make cap' 0 in
  let hdl' = Array.make cap' anon_hdl in
  let fn' = Array.make cap' noop in
  Array.blit t.q_time 0 time' 0 t.q_size;
  Array.blit t.q_seq 0 seq' 0 t.q_size;
  Array.blit t.q_hdl 0 hdl' 0 t.q_size;
  Array.blit t.q_fn 0 fn' 0 t.q_size;
  t.q_time <- time';
  t.q_seq <- seq';
  t.q_hdl <- hdl';
  t.q_fn <- fn'

(* Hole-style sift-up: walk parents down into the hole and place the new
   entry once, instead of swap-chains that double the pointer stores.
   The event time arrives through [t.push_time], not the argument list:
   this function cannot inline (the non-flambda inliner refuses loop
   bodies), and the native calling convention boxes float arguments to
   out-of-line calls — the flat cell makes the push allocation-free. *)
let q_push t ~hdl fn =
  let time = t.push_time.fc in
  t.seq <- t.seq + 1;
  let seq = t.seq in
  if t.q_size = Array.length t.q_time then q_grow t;
  let i = ref t.q_size in
  t.q_size <- t.q_size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = t.q_time.(p) in
    (* The fresh seq is larger than every queued one, so only a strictly
       earlier time moves the new entry above its parent. *)
    if time < pt then begin
      t.q_time.(!i) <- pt;
      t.q_seq.(!i) <- t.q_seq.(p);
      t.q_hdl.(!i) <- t.q_hdl.(p);
      t.q_fn.(!i) <- t.q_fn.(p);
      i := p
    end
    else sifting := false
  done;
  t.q_time.(!i) <- time;
  t.q_seq.(!i) <- seq;
  t.q_hdl.(!i) <- hdl;
  t.q_fn.(!i) <- fn

(* Remove the root; the caller has already copied its fields out. The
   vacated tail slot is reset to the shared sentinels so a popped event's
   closure and handle are unreachable the moment it runs. *)
let q_pop_root t =
  let n = t.q_size - 1 in
  t.q_size <- n;
  if n = 0 then begin
    t.q_hdl.(0) <- anon_hdl;
    t.q_fn.(0) <- noop
  end
  else begin
    let time = t.q_time.(n) in
    let seq = t.q_seq.(n) in
    let hdl = t.q_hdl.(n) in
    let fn = t.q_fn.(n) in
    t.q_hdl.(n) <- anon_hdl;
    t.q_fn.(n) <- noop;
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let lt = t.q_time.(l) and rt = t.q_time.(r) in
            if rt < lt || (rt = lt && t.q_seq.(r) < t.q_seq.(l)) then r else l
          end
          else l
        in
        let ct = t.q_time.(c) in
        if ct < time || (ct = time && t.q_seq.(c) < seq) then begin
          t.q_time.(!i) <- ct;
          t.q_seq.(!i) <- t.q_seq.(c);
          t.q_hdl.(!i) <- t.q_hdl.(c);
          t.q_fn.(!i) <- t.q_fn.(c);
          i := c
        end
        else sifting := false
      end
    done;
    t.q_time.(!i) <- time;
    t.q_seq.(!i) <- seq;
    t.q_hdl.(!i) <- hdl;
    t.q_fn.(!i) <- fn
  end

let[@inline] schedule_event t ~hdl ~time fn =
  if time < t.now.fc then invalid_arg "Engine.schedule: delay in the past";
  t.push_time.fc <- time;
  q_push t ~hdl fn

let schedule t ?(delay = 0.) fn =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  let hdl = { hcancelled = false } in
  schedule_event t ~hdl ~time:(t.now.fc +. delay) fn;
  hdl

(* The allocation-free schedule for callers that never cancel. *)
let schedule_anon t ?(delay = 0.) fn =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_event t ~hdl:anon_hdl ~time:(t.now.fc +. delay) fn

(* The delay arrives in a flat cell for the reason [q_push] takes its
   time from one: a float argument to a call from another module is
   boxed. *)
let after t delay fn =
  if delay.fc < 0. then invalid_arg "Engine.after: negative delay";
  schedule_event t ~hdl:anon_hdl ~time:(t.now.fc +. delay.fc) fn

let cancel hdl = hdl.hcancelled <- true
let cancelled hdl = hdl.hcancelled

(* Where a process stands between its blocks. A sleep and a park have
   their own resume closure, and each resumes only the block of its
   kind, so a stale park resume cannot cut a later sleep short. *)
type blocked = Running | Sleeping | Parked

(* The continuation of a blocked process. Created at the process's first
   block and overwritten at each later one, so it holds no placeholder
   before a continuation exists. *)
type slot = { mutable k : (unit, unit) Effect.Deep.continuation }

(* A process's blocking state, built once when it starts: [effc] stages
   the sleep's delay and the park's callback here, so the handlers it
   returns, and the resume closures they hand out, are allocated once
   per process instead of once per block. *)
type proc = {
  delay : fcell;
  mutable slot : slot option;
  mutable blocked : blocked;
  mutable on_park : (unit -> unit) -> unit;
}

let no_park (_ : unit -> unit) = ()

let block p k st =
  (match p.slot with Some s -> s.k <- k | None -> p.slot <- Some { k });
  p.blocked <- st

let resume_blocked p st =
  match p.slot with
  | Some s when p.blocked = st ->
      p.blocked <- Running;
      Effect.Deep.continue s.k ()
  | _ -> raise Effect.Continuation_already_resumed

(* Run [body] as a process: a deep effect handler interprets the blocking
   operations by scheduling continuation resumptions as engine events. *)
let start_process t (name : string) body =
  let open Effect.Deep in
  let p =
    { delay = { fc = 0. }; slot = None; blocked = Running; on_park = no_park }
  in
  (* One closure block for the four: a [let rec] shares its header and
     environment. *)
  let rec end_sleep () = resume_blocked p Sleeping
  and resume () = resume_blocked p Parked
  and on_sleep k =
    if p.delay.fc < 0. then
      discontinue k (Invalid_argument "Engine.sleep: negative delay")
    else begin
      block p k Sleeping;
      (* [now + delay] pushed as [schedule_anon] would: same time, same
         seq. *)
      schedule_event t ~hdl:anon_hdl ~time:(t.now.fc +. p.delay.fc) end_sleep
    end
  and on_park k =
    block p k Parked;
    p.on_park resume
  in
  let on_sleep = Some on_sleep and on_park = Some on_park in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Sleep dt ->
        p.delay.fc <- dt;
        on_sleep
    | Park f ->
        (* A parker passes the same callback each time: skip the write
           barrier then. *)
        if p.on_park != f then p.on_park <- f;
        on_park
    | Suspend f ->
        Some
          (fun k ->
            let resumed = ref false in
            let wake v =
              if not !resumed then begin
                resumed := true;
                schedule_anon t (fun () -> continue k v)
              end
            in
            f wake)
    | _ -> None
  in
  (* An exception escaping [body] leaves [run] through whichever event
     resumed the process, named and timed, with the body's backtrace. *)
  let exnc exn =
    let bt = Printexc.get_raw_backtrace () in
    let time = t.now.fc in
    t.failed <- [ (name, exn, time) ];
    Printexc.raise_with_backtrace (Process_failed { name; time; exn }) bt
  in
  match_with body () { retc = (fun () -> ()); exnc; effc }

let spawn t ?(name = "") ?(delay = 0.) body =
  schedule_anon t ~delay (fun () -> start_process t name body)

let sleep dt = Effect.perform (Sleep dt)
let suspend f = Effect.perform (Suspend f)
let parker f = Park f
let park_with p = Effect.perform p
let park f = Effect.perform (Park f)

let run t ~until =
  t.failed <- [];
  let rec loop () =
    if t.q_size > 0 && t.q_time.(0) <= until then begin
      let time = t.q_time.(0) in
      let hdl = t.q_hdl.(0) in
      let fn = t.q_fn.(0) in
      q_pop_root t;
      if not hdl.hcancelled then begin
        t.now.fc <- time;
        t.events <- t.events + 1;
        fn ()
      end;
      loop ()
    end
  in
  loop ()

let run_all t = run t ~until:infinity

let every t ?start ~interval f =
  if interval <= 0. then invalid_arg "Engine.every: interval must be > 0";
  let hdl = { hcancelled = false } in
  (* One closure per timer for its whole life; each rearm reuses it, so a
     periodic tick costs four column stores and no fresh closures. *)
  let rec tick () =
    f ();
    if not hdl.hcancelled then
      schedule_event t ~hdl ~time:(t.now.fc +. interval) tick
  in
  let first = match start with Some s -> s | None -> t.now.fc +. interval in
  schedule_event t ~hdl ~time:(max first t.now.fc) tick;
  hdl
