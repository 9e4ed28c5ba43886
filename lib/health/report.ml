type t = {
  duration_s : float;
  completed : int;
  errors : (Error.code * int) list;
  in_flight : int;
}

let stuck t = t.in_flight
let total_errors t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.errors

let pp fmt t =
  let line k v = Format.fprintf fmt "  %-28s %s@\n" k v in
  Format.fprintf fmt "health report (%.0f s measured)@\n" t.duration_s;
  line "completed queries" (string_of_int t.completed);
  line "failed attempts" (string_of_int (total_errors t));
  line "permanently stuck" (string_of_int (stuck t));
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
