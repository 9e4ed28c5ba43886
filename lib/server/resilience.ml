type backoff = { base_s : float; jitter_frac : float }

(* Sized for minutes-long pressure transients: five retries spread over
   up to ~8 simulated minutes, so a query submitted mid-storm usually
   survives to the release. *)
let max_retries = 5
let backoff_max_s = 240.
let server_backoff = { base_s = 15.; jitter_frac = 0.5 }

let backoff b ~attempt ~rng =
  (* Clamp rather than trust the caller: an attempt counter that underflowed
     to 0 or negative gets the base pause, and a curve hand-built with a
     negative jitter fraction or base must never produce a negative sleep
     (the engine would reject it mid-run, after hours of simulation). *)
  let attempt = max 1 attempt in
  let base =
    Float.max 0.
      (Float.min backoff_max_s (b.base_s *. (2. ** float_of_int (attempt - 1))))
  in
  let jitter_span = b.jitter_frac *. base in
  if jitter_span > 0. then base +. Sim.Rng.float rng jitter_span else base

module Budget = struct
  type config = {
    initial : float;  (* tokens in the bucket at creation *)
    earn_per_success : float;  (* tokens added per successful query *)
    max_tokens : float;  (* bucket cap *)
    spend_per_retry : float;  (* tokens one retry costs *)
  }

  (* 10% default earn rate: sustained retry traffic is capped at one
     retry per ten successes, the fraction at which retries stop being
     able to keep a storm alive on their own. The initial grant covers a
     client's cold start before it has any goodput to earn from. *)
  let default_config =
    {
      initial = 10.;
      earn_per_success = 0.1;
      max_tokens = 10.;
      spend_per_retry = 1.;
    }

  type t = {
    cfg : config;
    mutable balance : float;
    mutable earned : float;  (* cumulative, before the cap *)
    mutable capped : float;  (* earnings discarded at the cap *)
    mutable spent : float;
    mutable denied : int;
  }

  let create cfg =
    if cfg.initial < 0. then invalid_arg "Budget: negative initial";
    if cfg.earn_per_success < 0. then invalid_arg "Budget: negative earn";
    if cfg.max_tokens < 0. then invalid_arg "Budget: negative cap";
    if cfg.spend_per_retry <= 0. then
      invalid_arg "Budget: spend_per_retry must be > 0";
    {
      cfg;
      balance = Float.min cfg.initial cfg.max_tokens;
      earned = 0.;
      capped = 0.;
      spent = 0.;
      denied = 0;
    }

  let try_spend t =
    if t.balance >= t.cfg.spend_per_retry then begin
      t.balance <- t.balance -. t.cfg.spend_per_retry;
      t.spent <- t.spent +. t.cfg.spend_per_retry;
      true
    end
    else begin
      t.denied <- t.denied + 1;
      false
    end

  let earn t =
    t.earned <- t.earned +. t.cfg.earn_per_success;
    let next = t.balance +. t.cfg.earn_per_success in
    if next > t.cfg.max_tokens then begin
      t.capped <- t.capped +. (next -. t.cfg.max_tokens);
      t.balance <- t.cfg.max_tokens
    end
    else t.balance <- next

  let balance t = t.balance
  let earned t = t.earned
  let capped t = t.capped
  let spent t = t.spent
  let denied t = t.denied
  let config t = t.cfg
end

let pp ppf on =
  if not on then Format.fprintf ppf "resilience OFF"
  else
    Format.fprintf ppf
      "resilience ON: retries<=%d backoff %.0f-%.0fs (jitter %.0f%%), \
       degrade=true"
      max_retries server_backoff.base_s backoff_max_s
      (100. *. server_backoff.jitter_frac)
