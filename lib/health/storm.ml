(* Bucketing window for arrival counting, seconds. *)
let window_s = 30.0

(* A storm is a window whose count reaches this multiple of the
   baseline. *)
let surge_factor = 4.0

(* Absolute floor on the storm threshold: a quiet baseline is ~0. *)
let min_misses = 12

(* Consecutive quiet windows that end an episode. *)
let calm_windows = 2

(* The EWMA weight for folding a closed window's miss count into the
   baseline. Slow enough that a multi-window storm does not teach the
   detector that storms are normal before it has even cleared. *)
let ewma_alpha = 0.2

type t = {
  eng : Sim.Engine.t;
  enabled : bool;
  trace : Obs.Trace.t;
  mutable window_start : float;
  mutable cur_count : int;  (* compile arrivals in the open window *)
  mutable baseline : float;  (* EWMA of closed-window miss counts *)
  mutable storming : bool;
  mutable storm_started_at : float;  (* valid while storming *)
  mutable quiet : int;  (* consecutive calm closed windows while storming *)
  mutable storms_total : int;
}

let create ?(trace = Obs.Trace.null) eng ~enabled =
  {
    eng;
    enabled;
    trace;
    window_start = Sim.Engine.now eng;
    cur_count = 0;
    baseline = 0.;
    storming = false;
    storm_started_at = 0.;
    quiet = 0;
    storms_total = 0;
  }

let emit t event =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid:"storm" event

(* The per-window arrival count that separates a storm from traffic: the
   surge factor over the learned baseline, but never below the absolute
   floor (a quiet system's baseline is ~0 and any flurry would trip it). *)
let threshold t =
  max (float_of_int min_misses) (surge_factor *. t.baseline)

let end_storm t =
  t.storming <- false;
  t.quiet <- 0;
  let duration_s = Sim.Engine.now t.eng -. t.storm_started_at in
  emit t (Obs.Event.Storm_end { duration_s })

(* Lazily close every window that has fully elapsed: no timer process, an
   idle detector costs nothing. Each closed window feeds the EWMA and,
   while storming, counts toward the calm streak that ends the episode. *)
let roll t =
  let now = Sim.Engine.now t.eng in
  while now -. t.window_start >= window_s do
    let count = t.cur_count in
    if t.storming then
      if float_of_int count < threshold t then (
        t.quiet <- t.quiet + 1;
        if t.quiet >= calm_windows then end_storm t)
      else t.quiet <- 0;
    t.baseline <-
      (ewma_alpha *. float_of_int count) +. ((1. -. ewma_alpha) *. t.baseline);
    t.cur_count <- 0;
    t.window_start <- t.window_start +. window_s
  done

let note_compile t =
  if t.enabled then (
    roll t;
    t.cur_count <- t.cur_count + 1;
    if (not t.storming) && float_of_int t.cur_count >= threshold t then (
      t.storming <- true;
      t.storm_started_at <- Sim.Engine.now t.eng;
      t.quiet <- 0;
      t.storms_total <- t.storms_total + 1;
      emit t
        (Obs.Event.Storm_begin { misses = t.cur_count; baseline = t.baseline })))

let storms_total t = t.storms_total
