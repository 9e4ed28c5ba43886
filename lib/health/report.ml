type t = {
  duration_s : float;
  completed : int;
  errors : (Error.code * int) list;
  watchdog_watched : int;
  watchdog_stale : int;
  breaker_opens : int;
  breaker_reopens : int;
  breaker_closes : int;
  breakers_open : (string * Breaker.state) list;
  forced_reclaims : int;
}

let stuck t = t.watchdog_watched
let total_errors t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.errors

let pp fmt t =
  let line k v = Format.fprintf fmt "  %-28s %s@\n" k v in
  Format.fprintf fmt "health report (%.0f s measured)@\n" t.duration_s;
  line "completed queries" (string_of_int t.completed);
  line "failed queries" (string_of_int (total_errors t));
  line "permanently stuck" (string_of_int (stuck t));
  line "watchdog stale" (string_of_int t.watchdog_stale);
  line "breaker opens / closes"
    (Printf.sprintf "%d / %d" t.breaker_opens t.breaker_closes);
  (match t.breakers_open with
  | [] -> ()
  | open_now ->
      line "breakers not closed"
        (String.concat ", "
           (List.map
              (fun (tpl, st) ->
                Printf.sprintf "%s:%s" tpl (Breaker.state_name st))
              open_now)));
  line "forced reclaims" (string_of_int t.forced_reclaims);
  Format.fprintf fmt "  error budget@\n";
  Format.fprintf fmt "    %-22s %5s  %-8s %-9s %7s@\n" "code" "sql" "severity"
    "retryable" "count";
  List.iter
    (fun (code, count) ->
      Format.fprintf fmt "    %-22s %5s  %-8s %-9s %7d@\n"
        (Error.code_name code)
        (match Error.sql_code code with
        | Some n -> string_of_int n
        | None -> "-")
        (Error.severity_name (Error.severity code))
        (if Error.retryable code then "yes" else "no")
        count)
    t.errors
