(* Seed fan-out for dbsim's nine per-seed scenario subcommands (run,
   compare, sweep, chaos, health, tenants, shards, storm, cache). A
   scenario declares its own flags, its cells for one seed in print order
   (validated as they are built: an [Invalid_argument] there is a usage
   error), how to run a cell, how to print a seed's outcomes to stdout
   and, optionally, to a report file. This module owns the rest, once:
   the --seed/--seeds/--jobs/--out/--trace flags, one Parallel.Pool
   fan-out over every (seed, cell), the per-seed report files, and the
   Chrome traces. A traced cell records its trace in the same run that
   produces its reported outcome; tracing never perturbs a run, so the
   outcome is the one an untraced run would give. *)

open Cmdliner

type ('cfg, 'o) t = {
  cells : int -> 'cfg list;  (** One seed's cells, in print order. *)
  run : ?trace:Obs.Trace.t -> 'cfg -> 'o;
  section : int -> 'o list -> unit;  (** A seed's stdout section. *)
  report : (out_channel -> int -> 'o list -> unit) option;
      (** A seed's --out body; the command has --out only when it has one. *)
}

(* The structured one-line error, exit 124, for bad flag combinations
   caught before any simulation runs. *)
let fail msg =
  prerr_endline (Printf.sprintf "dbsim: error: %s (try 'dbsim --help')" msg);
  exit Cmd.Exit.cli_error

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

(* [conv] restricted to the values [ok] accepts; anything else is
   cmdliner's structured usage error, exit 124. *)
let checked conv ~ok ~expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let pos_int = checked Arg.int ~ok:(fun v -> v > 0) ~expected:"a positive integer"
let pos_float = checked Arg.float ~ok:(fun v -> v > 0.) ~expected:"a positive number"
let nonneg_int = checked Arg.int ~ok:(fun v -> v >= 0) ~expected:"a non-negative integer"

let nonneg_float =
  checked Arg.float ~ok:(fun v -> v >= 0.) ~expected:"a non-negative number"

let probability =
  checked Arg.float
    ~ok:(fun v -> v >= 0. && v <= 1.)
    ~expected:"a probability in [0, 1]"

let at_least_one =
  checked Arg.float
    ~ok:(fun v -> Float.is_finite v && v >= 1.)
    ~expected:"a finite number of at least 1"

(* A GiB flag is a byte count: a finite size that comes to at least one
   byte (and fits an int: under 2^32 GiB is under 2^62 bytes), or also 0
   when 0 switches the feature off. *)
let gib ~zero =
  let sized v = v > 0. && v < 0x1p32 && Dbmem.Units.of_gib v >= 1 in
  checked Arg.float
    ~ok:(fun v -> (zero && v = 0.) || sized v)
    ~expected:
      (if zero then "0 or a finite size of at least one byte, in GiB"
       else "a finite size of at least one byte, in GiB")

let warmup_arg ~default =
  Arg.(
    value
    & opt nonneg_float default
    & info [ "warmup" ] ~doc:"Warm-up seconds (excluded from results).")

let measure_arg ~default =
  Arg.(
    value
    & opt pos_float default
    & info [ "measure" ] ~doc:"Measured window, seconds.")

let slice_arg ~default =
  Arg.(
    value
    & opt pos_float default
    & info [ "slice" ] ~doc:"Time-slice width for throughput, seconds.")

let clients_arg ~default ~doc =
  Arg.(value & opt pos_int default & info [ "clients"; "c" ] ~doc)

let jobs_arg =
  Arg.(
    value
    & opt pos_int 1
    & info [ "jobs"; "j" ]
        ~env:(Cmd.Env.info "DBSIM_JOBS")
        ~doc:
          "Domains to fan independent runs across (at least 1; 1 = \
           sequential). Each run is deterministic given its seed, so the \
           output is the same at any job count.")

let think_arg ~default ~doc =
  Arg.(
    value
    & opt pos_float default
    & info [ "think" ] ~doc)

let seeds_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "seeds" ]
        ~doc:
          "Run every cell at each of these seeds (overrides --seed); the \
           independent runs fan out across --jobs domains.")

(* A repeated seed would make two runs race to the same per-seed report
   file, one silently overwriting the other. *)
let check_duplicate_seeds seeds =
  ignore
    (List.fold_left
       (fun seen s ->
         if List.mem s seen then
           fail (Printf.sprintf "duplicate seed %d in --seeds" s);
         s :: seen)
       [] seeds)

(* FILE as given for a single-seed run, FILE-seedN.ext otherwise. *)
let seed_out_path ~multi path seed =
  if not multi then path
  else
    match Filename.extension path with
    | "" -> Printf.sprintf "%s-seed%d" path seed
    | ext ->
        Printf.sprintf "%s-seed%d%s" (Filename.remove_extension path) seed ext

(* The ring keeps only the newest records, so say how many it dropped. *)
let write_trace path trace =
  let records = Obs.Trace.records trace in
  Obs.Export.chrome_to_file path records;
  Printf.printf "wrote %s (%d trace events, %d dropped)\n" path
    (Array.length records) (Obs.Trace.dropped trace)

(* A seed's traced cell: the first that [traced] accepts, else the first. *)
let traced_index traced cfgs =
  let rec go i = function
    | [] -> 0
    | c :: _ when traced c -> i
    | _ :: l -> go (i + 1) l
  in
  go 0 cfgs

let drive ?traced ?stuck ~seed_titles spec seed seeds jobs out trace_prefix =
  let seeds = match seeds with [] -> [ seed ] | l -> l in
  let multi = List.length seeds > 1 in
  let grid =
    List.concat_map
      (fun seed ->
        let cfgs =
          try spec.cells seed with Invalid_argument msg -> fail msg
        in
        let t =
          match (trace_prefix, traced) with
          | Some _, Some p -> traced_index p cfgs
          | _ -> -1
        in
        List.mapi (fun i cfg -> (seed, cfg, i = t)) cfgs)
      seeds
  in
  let results =
    Parallel.Pool.run ~jobs
      (fun (_, cfg, traced) ->
        if traced then
          let trace = Obs.Trace.create () in
          (spec.run ~trace cfg, Some trace)
        else (spec.run cfg, None))
      grid
  in
  let cells = List.combine grid results in
  List.iter
    (fun seed ->
      let mine = List.filter (fun ((s, _, _), _) -> s = seed) cells in
      let outcomes = List.map (fun (_, (o, _)) -> o) mine in
      if seed_titles && multi then Printf.printf "== seed %d ==\n" seed;
      spec.section seed outcomes;
      (match (out, spec.report) with
      | Some path, Some report ->
          let path = seed_out_path ~multi path seed in
          let oc = open_out path in
          report oc seed outcomes;
          close_out oc;
          Printf.printf "wrote %s\n" path
      | _ -> ());
      match (trace_prefix, List.find_map (fun (_, (_, t)) -> t) mine) with
      | Some prefix, Some trace ->
          write_trace (Printf.sprintf "%s-seed%d.json" prefix seed) trace
      | _ -> ())
    seeds;
  Option.iter
    (fun stuck ->
      let total =
        List.fold_left (fun acc (_, (o, _)) -> acc + stuck o) 0 cells
      in
      if multi then
        Printf.printf "\n%d seeds run, %d stuck queries total\n"
          (List.length seeds) total;
      if total > 0 then exit 3)
    stuck

(* [cmd info spec] — the subcommand running [spec]'s cells at every
   seed. [report] names what --out writes, for a spec with a report;
   without it there is no --out. [trace] gives --trace's doc and picks
   the cell to trace; without it there is no --trace. With [stuck], the
   command exits 3 when any outcome has stuck queries. [seed_titles]
   heads each seed's section with its seed when several seeds run, for
   sections that do not name their seed. *)
let cmd info ?report ?trace ?stuck ?(seed_titles = false) spec =
  let out_arg =
    match report with
    | None -> Term.const None
    | Some report ->
        Arg.(
          value
          & opt (some string) None
          & info [ "out"; "o" ] ~docv:"FILE"
              ~doc:
                (Printf.sprintf
                   "Also write the per-seed %s to FILE (CI artifact). With \
                    several $(b,--seeds), -seedN is inserted before the \
                    extension."
                   report))
  in
  let trace_arg =
    match trace with
    | None -> Term.const None
    | Some (doc, _) ->
        Arg.(
          value & opt (some string) None & info [ "trace" ] ~docv:"PREFIX" ~doc)
  in
  let seeds = Term.(const (fun l -> check_duplicate_seeds l; l) $ seeds_arg) in
  let traced = Option.map snd trace in
  Cmd.v info
    Term.(
      const (fun seeds seed jobs out trace_prefix spec ->
          drive ?traced ?stuck ~seed_titles spec seed seeds jobs out
            trace_prefix)
      $ seeds $ seed_arg $ jobs_arg $ out_arg $ trace_arg $ spec)

(* Report CSVs declare each column once, as a header and a printer, so a
   header and its rows cannot drift apart. *)
let csv oc columns rows =
  let line fields = output_string oc (String.concat "," fields ^ "\n") in
  line (List.map fst columns);
  List.iter (fun r -> line (List.map (fun (_, f) -> f r) columns)) rows

let str name f = (name, f)
let int name f = (name, fun r -> string_of_int (f r))
let bool name f = (name, fun r -> string_of_bool (f r))
let float prec name f = (name, fun r -> Printf.sprintf "%.*f" prec (f r))
