type abort_reason = Gateway_timeout of string | Out_of_memory

exception Aborted of abort_reason

type t = {
  alloc : int -> int;
  cpu : float -> unit;
  should_stop : unit -> bool;
}

let null =
  { alloc = (fun _ -> max_int); cpu = (fun _ -> ()); should_stop = (fun () -> false) }

let counting ~bytes ~cpu_seconds =
  {
    alloc =
      (fun n ->
        bytes := !bytes + n;
        0);
    cpu = (fun s -> cpu_seconds := !cpu_seconds +. s);
    should_stop = (fun () -> false);
  }

let pp_abort_reason ppf = function
  | Gateway_timeout m -> Format.fprintf ppf "gateway timeout (%s)" m
  | Out_of_memory -> Format.fprintf ppf "out of memory"
