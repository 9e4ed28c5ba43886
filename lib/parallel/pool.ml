let default_jobs () =
  match Sys.getenv_opt "DBSIM_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let run ~jobs f items =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  if jobs = 1 || List.compare_length_with items 1 <= 0 then List.map f items
  else begin
    let items = Array.of_list items in
    let n = Array.length items in
    let results : ('b, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    (* Every domain, the caller's included, claims the next unclaimed
       index until none is left. Each slot is written by one domain and
       read only after every helper has been joined. *)
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (try Ok (f items.(i)) with exn -> Error exn);
        drain ()
      end
    in
    let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn drain) in
    drain ();
    List.iter Domain.join helpers;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error exn) -> raise exn
           | None -> assert false)
         results)
  end
