type mode = Observe | Coalesce

module Statements = Optimizer.Query.Statements

type flight = {
  fstmt : Optimizer.Query.t;
  fq : Sim.Resource.Waitq.t;
  mutable fwaiters : int;
}

type token = flight

type t = {
  eng : Sim.Engine.t;
  mode : mode;
  flights : flight Statements.t;
  mutable led : int;
  mutable coalesced : int;
  mutable duplicates : int;
  mutable timeouts : int;
  mutable on_coalesce : Optimizer.Query.t -> waiters:int -> unit;
}

let create ?(mode = Coalesce) eng =
  {
    eng;
    mode;
    flights = Statements.create 32;
    led = 0;
    coalesced = 0;
    duplicates = 0;
    timeouts = 0;
    on_coalesce = (fun _ ~waiters:_ -> ());
  }

let set_on_coalesce t f = t.on_coalesce <- f

let lead t q =
  let f = { fstmt = q; fq = Sim.Resource.Waitq.create t.eng (); fwaiters = 0 } in
  Statements.add t.flights q f;
  t.led <- t.led + 1;
  `Leader f

let enter t q ?max_wait () =
  match Statements.find t.flights q with
  | exception Not_found -> lead t q
  | f -> (
      t.duplicates <- t.duplicates + 1;
      match t.mode with
      | Observe -> `Duplicate
      | Coalesce -> (
          f.fwaiters <- f.fwaiters + 1;
          t.coalesced <- t.coalesced + 1;
          t.on_coalesce q ~waiters:f.fwaiters;
          let r = Sim.Resource.Waitq.wait f.fq ?timeout:max_wait () in
          f.fwaiters <- f.fwaiters - 1;
          match r with
          | Sim.Resource.Acquired -> `Coalesced
          | Sim.Resource.Timed_out ->
              t.timeouts <- t.timeouts + 1;
              `Timed_out))

let exit t (tok : token) =
  (* Remove before broadcasting: a waiter that wakes, misses the cache
     (the leader failed) and re-enters must become a fresh leader, not
     re-join the flight it was just released from. *)
  Statements.remove t.flights tok.fstmt;
  Sim.Resource.Waitq.broadcast tok.fq

let in_flight t = Statements.length t.flights
let led t = t.led
let coalesced t = t.coalesced
let duplicates t = t.duplicates
let timeouts t = t.timeouts
