type slots = Per_cpu of int | Total of int

type level = {
  lname : string;
  base_threshold : int;
  slots : slots;
  timeout : float;
  fraction : float;
  min_threshold : int;
  max_threshold : int;
}

type t = { levels : level list; dynamic : bool }

let mib = Dbmem.Units.mib

let default () =
  {
    dynamic = true;
    levels =
      [
        {
          lname = "small";
          base_threshold = mib 2;
          slots = Per_cpu 4;
          timeout = 120.;
          fraction = 1.0;
          min_threshold = mib 2;
          max_threshold = mib 2;
        };
        {
          lname = "medium";
          base_threshold = mib 96;
          slots = Per_cpu 1;
          timeout = 300.;
          fraction = 0.35;
          min_threshold = mib 32;
          max_threshold = mib 384;
        };
        {
          lname = "big";
          base_threshold = mib 448;
          slots = Total 1;
          timeout = 600.;
          fraction = 0.45;
          min_threshold = mib 256;
          max_threshold = mib 1024;
        };
      ];
  }

let static_only () = { (default ()) with dynamic = false }

let single_gate () =
  {
    dynamic = false;
    levels =
      [
        {
          lname = "single";
          base_threshold = mib 2;
          slots = Per_cpu 4;
          timeout = 300.;
          fraction = 1.0;
          min_threshold = mib 2;
          max_threshold = mib 2;
        };
      ];
  }

let slot_count slots ~cpus =
  match slots with Per_cpu n -> n * cpus | Total n -> n

let validate t ~cpus =
  let rec check = function
    | a :: (b :: _ as rest) ->
        if b.base_threshold <= a.base_threshold then
          invalid_arg
            (Printf.sprintf "Throttle_config: threshold of %s (%d) <= %s (%d)"
               b.lname b.base_threshold a.lname a.base_threshold);
        if slot_count b.slots ~cpus > slot_count a.slots ~cpus then
          invalid_arg
            (Printf.sprintf "Throttle_config: slots increase from %s to %s"
               a.lname b.lname);
        if b.timeout < a.timeout then
          invalid_arg
            (Printf.sprintf "Throttle_config: timeout decreases from %s to %s"
               a.lname b.lname);
        check rest
    | [ _ ] | [] -> ()
  in
  List.iter
    (fun l ->
      if slot_count l.slots ~cpus < 1 then
        invalid_arg ("Throttle_config: level " ^ l.lname ^ " has no slots"))
    t.levels;
  check t.levels

let dynamic_threshold level ~target ~population =
  if target <= 0 then level.base_threshold
  else begin
    (* Int comparisons, not [Stdlib.max]/[min]: those are polymorphic
       and this runs on every governed allocation. *)
    let s = if population >= 1 then population else 1 in
    let raw = int_of_float (float_of_int target *. level.fraction /. float_of_int s) in
    let lo = if level.min_threshold >= raw then level.min_threshold else raw in
    if level.max_threshold <= lo then level.max_threshold else lo
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>gateway ladder (dynamic=%b)@," t.dynamic;
  List.iter
    (fun l ->
      let slots_str =
        match l.slots with
        | Per_cpu n -> Printf.sprintf "%d/cpu" n
        | Total n -> Printf.sprintf "%d total" n
      in
      Format.fprintf ppf "  %-8s threshold>=%-12s slots=%-8s timeout=%.0fs@,"
        l.lname
        (Dbmem.Units.bytes_to_string l.base_threshold)
        slots_str l.timeout)
    t.levels;
  Format.fprintf ppf "@]"
