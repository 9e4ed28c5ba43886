type clerk = {
  cname : string;
  mutable used : int;
  mutable peak : int;
  owner : t;
}

and donor = { dclerk : clerk; priority : int; shrink : int -> int }

and t = {
  mutable total : int;
  mutable used_total : int;
  mutable clerks_rev : clerk list;
  mutable donors : donor list; (* kept sorted by priority *)
  mutable oom_count : int;
  mutable alloc_fault : (string -> int -> bool) option;
  (* Tracing: dbmem knows no clock, so the trace comes with a [now]
     callback supplied by whoever owns the simulation engine. *)
  mutable trace : Obs.Trace.t;
  mutable trace_now : unit -> float;
}

exception Out_of_memory of { clerk : string; requested : int; free : int }

let create ~total () =
  if total <= 0 then invalid_arg "Manager.create: total must be > 0";
  {
    total;
    used_total = 0;
    clerks_rev = [];
    donors = [];
    oom_count = 0;
    alloc_fault = None;
    trace = Obs.Trace.null;
    trace_now = (fun () -> 0.);
  }

let set_trace t ~now trace =
  t.trace <- trace;
  t.trace_now <- now

(* Callers test [Obs.Trace.enabled] first, so an event record is built
   only when the trace keeps it. *)
let emit t event = Obs.Trace.emit t.trace ~time:(t.trace_now ()) ~qid:"" event

let total t = t.total
let used t = t.used_total
let available t = t.total - t.used_total

(* Budget resize (the tenant arbiter's lever). Lowering the budget below
   current usage leaves the manager over-committed — [available] goes
   negative and further allocations fail — until components free memory
   or a [demand] pass reclaims the overage through the donors. *)
let set_total t n =
  if n <= 0 then invalid_arg "Manager.set_total: total must be > 0";
  t.total <- n

let create_clerk t name =
  let c = { cname = name; used = 0; peak = 0; owner = t } in
  t.clerks_rev <- c :: t.clerks_rev;
  c

let clerk_name c = c.cname
let clerk_used c = c.used
let clerk_peak c = c.peak
let reset_peak c = c.peak <- c.used

let free_bytes c n =
  if n < 0 then invalid_arg "Manager.free: negative";
  if n > c.used then invalid_arg ("Manager.free: clerk " ^ c.cname ^ " underflow");
  c.used <- c.used - n;
  c.owner.used_total <- c.owner.used_total - n

(* The [except] of a walk that spares no donor: a clerk no manager
   holds, so no donor's clerk is physically equal to it. *)
let no_clerk = { cname = ""; used = 0; peak = 0; owner = create ~total:1 () }

(* Ask donors, cheapest-to-shrink first, until the manager has [target_free]
   bytes free. Donors shrink through [free_bytes] on their own clerk.
   [except] omits one clerk's donor from the walk: an allocation must not
   be satisfied by shrinking the requester itself (a cache evicting its
   own entries to admit a new one gains nothing). The walk is a top-level
   function over a plain clerk, so a miss allocates nothing here. *)
let rec ask t ~except ~target_free donors freed =
  if available t >= target_free then freed
  else
    match donors with
    | [] -> freed
    | d :: rest ->
        let want = target_free - available t in
        let got =
          if d.dclerk == except || d.dclerk.used = 0 then 0 else d.shrink want
        in
        ask t ~except ~target_free rest (freed + got)

let reclaim t ~except ~target_free =
  let wanted = target_free - available t in
  let freed = ask t ~except ~target_free t.donors 0 in
  if freed > 0 && Obs.Trace.enabled t.trace then
    emit t (Obs.Event.Reclaim { wanted; freed });
  freed

let demand t n = reclaim t ~except:no_clerk ~target_free:n

let alloc c n =
  if n < 0 then invalid_arg "Manager.alloc: negative";
  let t = c.owner in
  (* Injected transient failure: the commit path refuses spuriously, before
     any donor shrink or accounting change (the allocation simply never
     happened, as with a flaky mmap/commit). *)
  match t.alloc_fault with
  | Some f when f c.cname n -> Error `Out_of_memory
  | _ ->
  (* Two-pass reclaim: first spare the requester's own donor (so a cache
     insert draws from the other donors, typically the buffer pool), then
     fall back to the full walk — a donor growing at a full machine still
     recycles its own memory exactly as before. *)
  if available t < n then ignore (reclaim t ~except:c ~target_free:n);
  if available t < n then ignore (reclaim t ~except:no_clerk ~target_free:n);
  if available t < n then begin
    t.oom_count <- t.oom_count + 1;
    if Obs.Trace.enabled t.trace then
      emit t
        (Obs.Event.Oom { clerk = c.cname; requested = n; free = available t });
    Error `Out_of_memory
  end
  else begin
    c.used <- c.used + n;
    if c.used > c.peak then c.peak <- c.used;
    t.used_total <- t.used_total + n;
    Ok ()
  end

let credit c =
  let t = c.owner in
  match t.alloc_fault with Some _ -> 0 | None -> Int.max 0 (available t)

let alloc_exn c n =
  match alloc c n with
  | Ok () -> ()
  | Error `Out_of_memory ->
      raise (Out_of_memory { clerk = c.cname; requested = n; free = available c.owner })

let free = free_bytes
let free_all c = free_bytes c c.used

let register_donor t ~clerk ~priority ~shrink =
  let d = { dclerk = clerk; priority; shrink } in
  t.donors <-
    List.sort (fun a b -> compare a.priority b.priority) (d :: t.donors)

let clerks t = List.rev t.clerks_rev
let find_clerk t name = List.find_opt (fun c -> c.cname = name) (clerks t)
let snapshot t = List.map (fun c -> (c.cname, c.used)) (clerks t)
let oom_count t = t.oom_count
let set_alloc_fault t f = t.alloc_fault <- f

let pp ppf t =
  Format.fprintf ppf "@[<v>memory %a/%a free %a@," Units.pp_bytes t.used_total
    Units.pp_bytes t.total Units.pp_bytes (available t);
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-16s %a (peak %a)@," c.cname Units.pp_bytes c.used
        Units.pp_bytes c.peak)
    (clerks t);
  Format.fprintf ppf "@]"
