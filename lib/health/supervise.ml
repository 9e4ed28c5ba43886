let insist_after = 5

type t = {
  enabled : bool;
  watchdog : Watchdog.t;
  breakers : Breaker.t;
}

let create ?trace eng ~enabled =
  {
    enabled;
    watchdog = Watchdog.create ?trace eng;
    breakers = Breaker.create ?trace eng;
  }

let start t = if t.enabled then Watchdog.start t.watchdog

let admit t ~template =
  if t.enabled then Breaker.admit t.breakers ~template else Ok ()

let release_probe t ~template =
  if t.enabled then Breaker.release_probe t.breakers ~template

let record_success t ~template =
  if t.enabled then Breaker.record_success t.breakers ~template

let record_failure t ~template =
  if t.enabled then Breaker.record_failure t.breakers ~template

let watch t ~qid =
  if t.enabled then Some (Watchdog.watch t.watchdog ~qid) else None

let unwatch t = Option.iter (Watchdog.unwatch t.watchdog)
