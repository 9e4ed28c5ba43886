let insist_after = 5

type t = {
  enabled : bool;
  breakers : Breaker.t;
}

let create ?trace eng ~enabled =
  { enabled; breakers = Breaker.create ?trace eng }

let admit t ~template =
  if t.enabled then Breaker.admit t.breakers ~template else Ok ()

let release_probe t ~template =
  if t.enabled then Breaker.release_probe t.breakers ~template

let record_success t ~template =
  if t.enabled then Breaker.record_success t.breakers ~template

let record_failure t ~template =
  if t.enabled then Breaker.record_failure t.breakers ~template
