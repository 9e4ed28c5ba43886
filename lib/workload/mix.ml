let mixed_templates ~ratio ~variants () =
  if ratio < 0. || ratio > 1. then
    invalid_arg "Mix.mixed_templates: ratio outside [0, 1]";
  let adhoc = Sales.templates () in
  let param = Sales.parameterized_templates ~variants () in
  let weighted w ts =
    if w <= 0. then []
    else
      let each = w /. float_of_int (List.length ts) in
      List.map (fun t -> { t with Template.weight = each }) ts
  in
  weighted ratio param @ weighted (1. -. ratio) adhoc

type diurnal = { period : float; peak_load : float }

let think_of ?diurnal ~base () =
  match diurnal with
  | None -> fun _ -> base
  | Some d ->
      if d.period <= 0. || d.peak_load < 1. then
        invalid_arg "Mix.think_of: period <= 0 or peak_load < 1";
      fun now ->
        (* load swings 1 .. peak_load, trough at t = 0 (warmup starts
           quiet, the peak lands mid-cycle). *)
        let s =
          0.5 *. (1. -. cos (2. *. Float.pi *. now /. d.period))
        in
        base /. (1. +. ((d.peak_load -. 1.) *. s))

type flash = { at : float; duration : float; clients : int; think : float }

let spawn_flash eng ~seed ~label ~templates ~submit ~stats ~ids spec =
  if spec.clients < 0 || spec.duration < 0. || spec.at < 0. then
    invalid_arg "Mix.spawn_flash: negative at/duration/clients";
  Client.spawn_fleet eng ~seed ~label ~clients:spec.clients ~templates
    ~submit:(fun _ -> submit)
    ~config:{ Client.default_config with think_mean = spec.think }
    ~stats ~ids
    ~start:(fun _ -> spec.at)
    ~until:(spec.at +. spec.duration)
