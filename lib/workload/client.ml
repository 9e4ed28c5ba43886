type config = { think_mean : float; retry_delay : float; max_attempts : int }

let default_config = { think_mean = 100.0; retry_delay = 5.0; max_attempts = 5 }

type stats = {
  mutable submitted : int;
  mutable attempts : int;
  mutable succeeded : int;
  mutable abandoned : int;
}

type submit = Optimizer.Query.t -> (unit, string) result

let make_stats () = { submitted = 0; attempts = 0; succeeded = 0; abandoned = 0 }

let spawn ?(start = 0.) ?think_of eng rng ~name ~templates ~submit ~config
    ~stats ~ids ~until =
  let rng = Sim.Rng.split rng in
  let think_mean =
    match think_of with
    | Some f -> f
    | None -> fun _ -> config.think_mean
  in
  Sim.Engine.spawn eng ~name (fun () ->
      let now = Sim.Engine.now eng in
      if start > now then Sim.Engine.sleep (start -. now);
      while Sim.Engine.now eng < until do
        let mean = think_mean (Sim.Engine.now eng) in
        Sim.Engine.sleep (Sim.Rng.exponential rng ~mean);
        if Sim.Engine.now eng < until then begin
          let template = Template.pick rng templates in
          incr ids;
          let q = Template.instance rng template ~id:!ids in
          stats.submitted <- stats.submitted + 1;
          let rec attempt n =
            stats.attempts <- stats.attempts + 1;
            match submit q with
            | Ok () -> stats.succeeded <- stats.succeeded + 1
            | Error _ when n + 1 < config.max_attempts ->
                (* Exponential backoff: resource errors mean the server is
                   saturated; hammering it amplifies the collapse. *)
                Sim.Engine.sleep (config.retry_delay *. (2. ** float_of_int n));
                attempt (n + 1)
            | Error _ -> stats.abandoned <- stats.abandoned + 1
          in
          attempt 0
        end
      done)

let spawn_fleet ?think_of ?(start = fun _ -> 0.) eng ~seed ~label ~clients
    ~templates ~submit ~config ~stats ~ids ~until =
  for i = 1 to clients do
    let cname = Printf.sprintf "%s-%d" label i in
    spawn ?think_of ~start:(start i) eng
      (Sim.Rng.create (seed lxor Hashtbl.hash cname))
      ~name:cname ~templates ~submit:(submit i) ~config ~stats ~ids ~until
  done

let counting eng series submit q =
  let r = submit q in
  (match r with
  | Ok () -> Sim.Series.add series ~time:(Sim.Engine.now eng) 1.
  | Error _ -> ());
  r

type window = {
  slices : (float * float) array;
  mean_per_slice : float;
  completed : int;
}

let slice_mean slices =
  if Array.length slices = 0 then 0.
  else
    Array.fold_left (fun acc (_, v) -> acc +. v) 0. slices
    /. float_of_int (Array.length slices)

let window series ~start ~stop ~slice =
  let slices = Sim.Series.bucket_sum series ~start ~stop ~width:slice in
  {
    slices;
    mean_per_slice = slice_mean slices;
    completed = Array.length (Sim.Series.values_between series ~start ~stop);
  }
