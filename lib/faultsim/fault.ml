type spec =
  | Memory_ballast of {
      at : float;
      bytes : int;
      hold : float;
      ramp_steps : int;
      step_s : float;
    }
  | Disk_storm of {
      at : float;
      duration : float;
      throughput_factor : float;
      extra_seek_s : float;
    }
  | Client_burst of {
      at : float;
      duration : float;
      clients : int;
      think_mean : float;
    }
  | Alloc_glitch of {
      at : float;
      duration : float;
      fail_prob : float;
      clerks : string list;
    }
  | Shard_crash of { at : float; shard : int; restart_delay : float }
  | Shard_stall of {
      at : float;
      shard : int;
      duration : float;
      slow_factor : float;
    }

let validate = function
  | Memory_ballast { at; bytes; hold; ramp_steps; step_s } ->
      if at < 0. then invalid_arg "Fault: ballast at < 0";
      if bytes <= 0 then invalid_arg "Fault: ballast bytes <= 0";
      if hold < 0. then invalid_arg "Fault: ballast hold < 0";
      if ramp_steps < 1 then invalid_arg "Fault: ballast ramp_steps < 1";
      if step_s < 0. then invalid_arg "Fault: ballast step_s < 0"
  | Disk_storm { at; duration; throughput_factor; extra_seek_s } ->
      if at < 0. then invalid_arg "Fault: storm at < 0";
      if duration <= 0. then invalid_arg "Fault: storm duration <= 0";
      if throughput_factor <= 0. || throughput_factor > 1. then
        invalid_arg "Fault: storm throughput_factor not in (0,1]";
      if extra_seek_s < 0. then invalid_arg "Fault: storm extra_seek_s < 0"
  | Client_burst { at; duration; clients; think_mean } ->
      if at < 0. then invalid_arg "Fault: burst at < 0";
      if duration <= 0. then invalid_arg "Fault: burst duration <= 0";
      if clients < 1 then invalid_arg "Fault: burst clients < 1";
      if think_mean <= 0. then invalid_arg "Fault: burst think_mean <= 0"
  | Alloc_glitch { at; duration; fail_prob; clerks = _ } ->
      if at < 0. then invalid_arg "Fault: glitch at < 0";
      if duration <= 0. then invalid_arg "Fault: glitch duration <= 0";
      if fail_prob < 0. || fail_prob > 1. then
        invalid_arg "Fault: glitch fail_prob not in [0,1]"
  | Shard_crash { at; shard; restart_delay } ->
      if at < 0. then invalid_arg "Fault: crash at < 0";
      if shard < 0 then invalid_arg "Fault: crash shard < 0";
      if restart_delay <= 0. then invalid_arg "Fault: crash restart_delay <= 0"
  | Shard_stall { at; shard; duration; slow_factor } ->
      if at < 0. then invalid_arg "Fault: stall at < 0";
      if shard < 0 then invalid_arg "Fault: stall shard < 0";
      if duration <= 0. then invalid_arg "Fault: stall duration <= 0";
      if slow_factor <= 0. || slow_factor > 1. then
        invalid_arg "Fault: stall slow_factor not in (0,1]"

let label = function
  | Memory_ballast { at; bytes; _ } ->
      Printf.sprintf "ballast(%s@%.0fs)" (Dbmem.Units.bytes_to_string bytes) at
  | Disk_storm { at; throughput_factor; _ } ->
      Printf.sprintf "disk-storm(x%.2f@%.0fs)" throughput_factor at
  | Client_burst { at; clients; _ } ->
      Printf.sprintf "burst(%d@%.0fs)" clients at
  | Alloc_glitch { at; fail_prob; _ } ->
      Printf.sprintf "alloc-glitch(p=%.2f@%.0fs)" fail_prob at
  | Shard_crash { at; shard; _ } ->
      Printf.sprintf "shard-crash(%d@%.0fs)" shard at
  | Shard_stall { at; shard; _ } ->
      Printf.sprintf "shard-stall(%d@%.0fs)" shard at

let window = function
  | Memory_ballast { at; hold; ramp_steps; step_s; _ } ->
      (at, at +. (float_of_int ramp_steps *. step_s) +. hold)
  | Disk_storm { at; duration; _ }
  | Client_burst { at; duration; _ }
  | Alloc_glitch { at; duration; _ }
  | Shard_stall { at; duration; _ } ->
      (at, at +. duration)
  | Shard_crash { at; restart_delay; _ } -> (at, at +. restart_delay)

let pp ppf s =
  let start, stop = window s in
  match s with
  | Memory_ballast { bytes; ramp_steps; _ } ->
      Format.fprintf ppf "memory ballast %a over %d steps, active %.0f-%.0fs"
        Dbmem.Units.pp_bytes bytes ramp_steps start stop
  | Disk_storm { throughput_factor; extra_seek_s; _ } ->
      Format.fprintf ppf
        "disk storm x%.2f bandwidth, +%.0fms seek, active %.0f-%.0fs"
        throughput_factor (1000. *. extra_seek_s) start stop
  | Client_burst { clients; think_mean; _ } ->
      Format.fprintf ppf
        "client burst of %d (think %.0fs), active %.0f-%.0fs" clients
        think_mean start stop
  | Alloc_glitch { fail_prob; clerks; _ } ->
      Format.fprintf ppf "alloc glitch p=%.2f on %s, active %.0f-%.0fs"
        fail_prob
        (match clerks with [] -> "all clerks" | l -> String.concat "," l)
        start stop
  | Shard_crash { shard; restart_delay; _ } ->
      Format.fprintf ppf
        "shard %d crash at %.0fs, restarts after %.0fs (cold cache)" shard
        start restart_delay
  | Shard_stall { shard; slow_factor; _ } ->
      Format.fprintf ppf
        "shard %d brownout x%.2f service rate, active %.0f-%.0fs" shard
        slow_factor start stop
