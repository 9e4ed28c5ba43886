let kib n = n * 1024
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024
let to_mib n = float_of_int n /. (1024. *. 1024.)

let pp_bytes ppf n =
  let f = float_of_int n in
  let abs = Float.abs f in
  if abs >= 1024. *. 1024. *. 1024. then
    Format.fprintf ppf "%.2f GiB" (f /. (1024. *. 1024. *. 1024.))
  else if abs >= 1024. *. 1024. then Format.fprintf ppf "%.2f MiB" (to_mib n)
  else if abs >= 1024. then Format.fprintf ppf "%.2f KiB" (f /. 1024.)
  else Format.fprintf ppf "%d B" n

let bytes_to_string n = Format.asprintf "%a" pp_bytes n
