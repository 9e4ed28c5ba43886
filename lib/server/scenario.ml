type t = {
  clients : int;
  warmup : float;
  measure : float;
  drain : float;
  think : float;
  slice : float;
  ballast_gib : float;
  at : float;
  ramp_steps : int;
  step_s : float;
  hold : float;
  disk_storm : bool;
  burst : int;
  glitch : float;
}

let default =
  {
    clients = 35;
    warmup = 60.;
    measure = 1000.;
    drain = 900.;
    think = 100.;
    slice = 60.;
    ballast_gib = 12.;
    at = 100.;
    ramp_steps = 240;
    step_s = 2.5;
    hold = 0.;
    disk_storm = false;
    burst = 0;
    glitch = 0.15;
  }

let faults s =
  let { at; ramp_steps; step_s; hold; _ } = s in
  let duration = (float_of_int ramp_steps *. step_s) +. hold in
  (if s.ballast_gib > 0. then
     [
       Faultsim.Fault.Memory_ballast
         { at; bytes = Dbmem.Units.of_gib s.ballast_gib; hold; ramp_steps; step_s };
     ]
   else [])
  @ (if s.disk_storm then
       [
         Faultsim.Fault.Disk_storm
           { at; duration; throughput_factor = 0.5; extra_seek_s = 0.004 };
       ]
     else [])
  @ (if s.burst > 0 then
       [
         Faultsim.Fault.Client_burst
           { at; duration; clients = s.burst; think_mean = 10. };
       ]
     else [])
  @
  if s.glitch > 0. then
    [
      Faultsim.Fault.Alloc_glitch
        { at; duration; fail_prob = s.glitch; clerks = [ "compile" ] };
    ]
  else []
