type t = {
  eng : Sim.Engine.t;
  sem : Sim.Resource.Sem.t;
  slice : float;
  created_at : float;
  mutable busy_total : float;
}

let create eng ~cores ?(slice = 0.25) () =
  if cores < 1 then invalid_arg "Cpu.create: cores";
  if slice <= 0. then invalid_arg "Cpu.create: slice";
  {
    eng;
    sem = Sim.Resource.Sem.create eng ~capacity:cores ();
    slice;
    created_at = Sim.Engine.now eng;
    busy_total = 0.;
  }

let busy t seconds =
  if seconds < 0. then invalid_arg "Cpu.busy: negative";
  let remaining = ref seconds in
  while !remaining > 1e-9 do
    (match Sim.Resource.Sem.acquire t.sem ~n:1 () with
    | Sim.Resource.Acquired -> ()
    | Sim.Resource.Timed_out -> assert false);
    let q = Float.min t.slice !remaining in
    Sim.Engine.sleep q;
    Sim.Resource.Sem.release t.sem ~n:1;
    t.busy_total <- t.busy_total +. q;
    remaining := !remaining -. q
  done

let busy_seconds t = t.busy_total

let utilization t =
  let elapsed = Sim.Engine.now t.eng -. t.created_at in
  if elapsed <= 0. then 0. else t.busy_total /. elapsed

let queued t = Sim.Resource.Sem.queued t.sem
