(* Alternating pairs: perfbench's end-to-end metrics from two built
   trees, run one at a time.

     dune exec bench/pairs.exe -- PARENT CHANGE --workload sales_adhoc \
       --seeds 42,7 -n 10 [--seconds 7]

   PARENT and CHANGE are source trees in which
   [dune build ./perfbench/bench.exe] has run. For each seed, each of the
   N pairs runs [perfbench/bench.exe --workload W --seed S --seconds T
   --trace 0] from both trees, one process after the other: the parent
   first in odd pairs, the change first in even ones, so a drift of the
   machine's speed falls on both sides alike. Per seed and metric it
   prints each side's median and quartiles, the change of the median,
   and in how many pairs the change was better. [clear] marks a metric
   that was better in at least 9 of 10 pairs and whose median moved by
   more than the parent's interquartile range. One untraced run says
   little about wall time on a 2-core machine: ten runs of one binary
   have spread by more than 30%.

   Exits 1 if a run fails or reports [correct: false], 2 on bad
   arguments. *)

open Json

(* The end-to-end metrics where a larger value is better. *)
let higher_is_better = [ "sim_s_per_wall_s"; "sim_qph"; "sim_ok_share" ]

let usage () =
  prerr_endline
    "usage: pairs PARENT CHANGE --workload W [--seeds 42,7] [-n 10] \
     [--seconds 7]";
  exit 2

(* One untraced run: the metrics of its closing JSON line, in order. *)
let run_once ~tree ~workload ~seed ~seconds =
  let exe = Filename.concat tree "_build/default/perfbench/bench.exe" in
  let args =
    [|
      exe; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; string_of_int seconds; "--trace"; "0";
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let fail why =
    Printf.eprintf "pairs: %s seed %d: %s\n" exe seed why;
    exit 1
  in
  if status <> Unix.WEXITED 0 then fail "the run failed";
  let j =
    match !lines with
    | last :: _ -> ( try parse_json last with Parse e -> fail e)
    | [] -> fail "no output"
  in
  if bool_field j "correct" <> Some true then fail "correct is not true";
  match member "metrics" j with
  | Some (Obj ms) ->
      List.filter_map
        (fun (name, m) -> Option.map (fun v -> (name, v)) (num_field m "value"))
        ms
  | _ -> fail "no metrics"

(* Linear interpolation between the order statistics. *)
let quantile sorted p =
  let n = Array.length sorted in
  let x = p *. float_of_int (n - 1) in
  let i = int_of_float x in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let summary xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  (quantile a 0.25, quantile a 0.5, quantile a 0.75)

let report ~workload ~seed pairs =
  let n = List.length pairs in
  Printf.printf "%s seed %d, %d pairs\n" workload seed n;
  Printf.printf "  %-20s %-32s %-32s %8s %6s\n" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "median" "wins";
  List.iter
    (fun (name, _) ->
      let side pick = List.map (fun p -> List.assoc name (pick p)) pairs in
      let ps = side fst and cs = side snd in
      let better =
        if List.mem name higher_is_better then ( > ) else ( < )
      in
      let wins = List.length (List.filter Fun.id (List.map2 better cs ps)) in
      let pq1, pm, pq3 = summary ps and cq1, cm, cq3 = summary cs in
      let clear =
        10 * wins >= 9 * n && better cm pm && Float.abs (cm -. pm) > pq3 -. pq1
      in
      let show q1 m q3 = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
      Printf.printf "  %-20s %-32s %-32s %+7.1f%% %3d/%-2d%s\n" name
        (show pq1 pm pq3) (show cq1 cm cq3)
        (if pm = 0. then 0. else 100. *. (cm -. pm) /. pm)
        wins n
        (if clear then " clear" else ""))
    (fst (List.hd pairs))

let () =
  let workload = ref "" and seeds = ref [ 42; 7 ] and n = ref 10 in
  let seconds = ref 7 and trees = ref [] in
  let int_arg v =
    match int_of_string_opt v with Some k when k > 0 -> k | _ -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seeds" :: s :: rest ->
        seeds :=
          List.map
            (fun s ->
              match int_of_string_opt s with Some k -> k | None -> usage ())
            (String.split_on_char ',' s);
        parse rest
    | "-n" :: k :: rest ->
        n := int_arg k;
        parse rest
    | "--seconds" :: k :: rest ->
        seconds := int_arg k;
        parse rest
    | t :: rest when String.length t > 0 && t.[0] <> '-' ->
        trees := t :: !trees;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let parent, change =
    match List.rev !trees with [ p; c ] -> (p, c) | _ -> usage ()
  in
  if !workload = "" then usage ();
  List.iter
    (fun seed ->
      let run tree =
        run_once ~tree ~workload:!workload ~seed ~seconds:!seconds
      in
      let pairs =
        List.init !n (fun i ->
            if i mod 2 = 0 then
              let p = run parent in
              (p, run change)
            else
              let c = run change in
              (run parent, c))
      in
      report ~workload:!workload ~seed pairs)
    !seeds
