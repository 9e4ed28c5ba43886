type mode = Observe | Coalesce

type flight = {
  fkey : string;
  fq : Sim.Resource.Waitq.t;
  mutable fwaiters : int;
}

type token = flight

type t = {
  eng : Sim.Engine.t;
  mode : mode;
  flights : (string, flight) Hashtbl.t;
  mutable led : int;
  mutable coalesced : int;
  mutable duplicates : int;
  mutable timeouts : int;
  mutable on_coalesce : key:string -> waiters:int -> unit;
}

let create ?(mode = Coalesce) eng =
  {
    eng;
    mode;
    flights = Hashtbl.create 32;
    led = 0;
    coalesced = 0;
    duplicates = 0;
    timeouts = 0;
    on_coalesce = (fun ~key:_ ~waiters:_ -> ());
  }

let set_on_coalesce t f = t.on_coalesce <- f

let lead t key =
  let f =
    { fkey = key; fq = Sim.Resource.Waitq.create t.eng ~name:key (); fwaiters = 0 }
  in
  Hashtbl.add t.flights key f;
  t.led <- t.led + 1;
  `Leader f

let enter t ~key ?max_wait () =
  match Hashtbl.find_opt t.flights key with
  | None -> lead t key
  | Some f -> (
      t.duplicates <- t.duplicates + 1;
      match t.mode with
      | Observe -> `Duplicate
      | Coalesce -> (
          f.fwaiters <- f.fwaiters + 1;
          t.coalesced <- t.coalesced + 1;
          t.on_coalesce ~key ~waiters:f.fwaiters;
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
  if Hashtbl.mem t.flights tok.fkey then Hashtbl.remove t.flights tok.fkey;
  Sim.Resource.Waitq.broadcast tok.fq

let in_flight t = Hashtbl.length t.flights
let led t = t.led
let coalesced t = t.coalesced
let duplicates t = t.duplicates
let timeouts t = t.timeouts
