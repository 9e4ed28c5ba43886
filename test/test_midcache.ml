(* Mid-tier statement/result cache: staleness semantics (TTL boundary,
   write-driven invalidation), LRU eviction under a byte budget, broker
   shrink monotonicity, QCheck properties over fuzzed op interleavings
   against a shadow model, and the end-to-end acceptance dynamics of the
   Cached experiment (brokered beats cache-off at a parameterized-heavy
   mix; ballast makes the cache shrink, not the run collapse; the
   parallel fan-out is bit-identical to the sequential one). *)

let mk ?charge ?release ?(budget = 1000) ?(ttl = 10.) ?(max_entry = 500) () =
  Midcache.Cache.create ?charge ?release ~budget
    { Midcache.Cache.ttl; max_entry_bytes = max_entry }

(* ------------------------------------------------------------------ *)
(* Staleness: TTL boundary and write-driven invalidation *)

let test_ttl_boundary () =
  let c = mk ~ttl:10. () in
  assert (Midcache.Cache.put c ~now:0. ~key:"k" ~bytes:10 ~rels:[ "r" ]);
  Alcotest.(check (option int))
    "strictly before expiry is a hit" (Some 10)
    (Midcache.Cache.get c ~now:9.999 "k");
  Alcotest.(check (option int))
    "exactly at expiry is a miss" None
    (Midcache.Cache.get c ~now:10. "k");
  Alcotest.(check int) "expiry counted" 1 (Midcache.Cache.expired c);
  Alcotest.(check int) "miss counted" 1 (Midcache.Cache.misses c);
  Alcotest.(check int) "entry dropped" 0 (Midcache.Cache.entries c);
  (* The expired entry is gone for good, not resurrectable. *)
  Alcotest.(check (option int))
    "still a miss later" None
    (Midcache.Cache.get c ~now:10.5 "k")

let test_ttl_disabled () =
  let c = mk ~ttl:0. () in
  assert (Midcache.Cache.put c ~now:0. ~key:"k" ~bytes:10 ~rels:[ "r" ]);
  Alcotest.(check (option int))
    "ttl <= 0 never expires" (Some 10)
    (Midcache.Cache.get c ~now:1e12 "k")

let test_invalidate_by_relation () =
  let c = mk () in
  assert (Midcache.Cache.put c ~now:0. ~key:"a" ~bytes:10 ~rels:[ "r1"; "r2" ]);
  assert (Midcache.Cache.put c ~now:0. ~key:"b" ~bytes:20 ~rels:[ "r2" ]);
  assert (Midcache.Cache.put c ~now:0. ~key:"c" ~bytes:30 ~rels:[ "r3" ]);
  let entries, bytes = Midcache.Cache.invalidate c "r2" in
  Alcotest.(check int) "two entries joined r2" 2 entries;
  Alcotest.(check int) "their bytes" 30 bytes;
  Alcotest.(check bool) "a gone" false (Midcache.Cache.mem c "a");
  Alcotest.(check bool) "b gone" false (Midcache.Cache.mem c "b");
  Alcotest.(check bool) "c untouched" true (Midcache.Cache.mem c "c");
  Alcotest.(check int) "resident" 30 (Midcache.Cache.resident c);
  let entries, bytes = Midcache.Cache.invalidate c "r2" in
  Alcotest.(check (pair int int)) "idempotent" (0, 0) (entries, bytes)

(* ------------------------------------------------------------------ *)
(* LRU under mixed-size entries *)

let test_lru_mixed_sizes () =
  let c = mk ~budget:100 ~max_entry:100 () in
  assert (Midcache.Cache.put c ~now:0. ~key:"a" ~bytes:40 ~rels:[ "r" ]);
  assert (Midcache.Cache.put c ~now:1. ~key:"b" ~bytes:30 ~rels:[ "r" ]);
  assert (Midcache.Cache.put c ~now:2. ~key:"c" ~bytes:20 ~rels:[ "r" ]);
  (* Touch [a]: recency order is now c, b from the LRU end. *)
  Alcotest.(check (option int)) "touch a" (Some 40) (Midcache.Cache.get c ~now:3. "a");
  (* 50 bytes need 40 freed: strict LRU must evict b (30) then c (20),
     never the freshly-touched a. *)
  assert (Midcache.Cache.put c ~now:4. ~key:"d" ~bytes:50 ~rels:[ "r" ]);
  Alcotest.(check bool) "a survives (MRU)" true (Midcache.Cache.mem c "a");
  Alcotest.(check bool) "b evicted first (LRU)" false (Midcache.Cache.mem c "b");
  Alcotest.(check bool) "c evicted second" false (Midcache.Cache.mem c "c");
  Alcotest.(check bool) "d resident" true (Midcache.Cache.mem c "d");
  Alcotest.(check int) "two space evictions" 2 (Midcache.Cache.evictions c);
  Alcotest.(check int) "resident = a + d" 90 (Midcache.Cache.resident c)

let test_oversized_refused () =
  let c = mk ~budget:100 ~max_entry:60 () in
  assert (Midcache.Cache.put c ~now:0. ~key:"a" ~bytes:40 ~rels:[ "r" ]);
  Alcotest.(check bool)
    "over max_entry_bytes refused" false
    (Midcache.Cache.put c ~now:0. ~key:"big" ~bytes:61 ~rels:[ "r" ]);
  Alcotest.(check bool)
    "non-positive refused" false
    (Midcache.Cache.put c ~now:0. ~key:"zero" ~bytes:0 ~rels:[ "r" ]);
  Alcotest.(check int) "refusals counted" 2 (Midcache.Cache.refused c);
  Alcotest.(check bool)
    "a undisturbed by refusals" true (Midcache.Cache.mem c "a")

let test_set_budget_evicts () =
  let c = mk ~budget:100 ~max_entry:100 () in
  assert (Midcache.Cache.put c ~now:0. ~key:"a" ~bytes:40 ~rels:[ "r" ]);
  assert (Midcache.Cache.put c ~now:1. ~key:"b" ~bytes:40 ~rels:[ "r" ]);
  Midcache.Cache.set_budget c 50;
  Alcotest.(check int) "budget re-targeted" 50 (Midcache.Cache.budget c);
  Alcotest.(check bool) "LRU a evicted" false (Midcache.Cache.mem c "a");
  Alcotest.(check bool) "MRU b kept" true (Midcache.Cache.mem c "b");
  Alcotest.(check bool)
    "resident under new budget" true
    (Midcache.Cache.resident c <= 50)

(* ------------------------------------------------------------------ *)
(* Broker-driven shrink: monotone release, no re-grow within a reclaim *)

let test_shrink_monotonic () =
  (* The release hook observes every byte leaving the cache; during one
     shrink call the resident size must be strictly decreasing — a
     reclaim that re-grows the cache would be lying to the broker. *)
  let residents = ref [] in
  let cache = ref None in
  let release _n =
    match !cache with
    | None -> ()
    | Some c -> residents := Midcache.Cache.resident c :: !residents
  in
  let c = mk ~release ~budget:1000 ~max_entry:1000 () in
  cache := Some c;
  for i = 1 to 10 do
    assert (
      Midcache.Cache.put c ~now:0.
        ~key:(Printf.sprintf "k%d" i)
        ~bytes:(10 * i) ~rels:[ "r" ])
  done;
  let before = Midcache.Cache.resident c in
  residents := [];
  let freed = Midcache.Cache.shrink c 200 in
  Alcotest.(check bool) "freed at least the ask" true (freed >= 200);
  Alcotest.(check int)
    "resident dropped by exactly freed" (before - freed)
    (Midcache.Cache.resident c);
  let seq = List.rev !residents in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  (* [release] fires after each eviction's decrement, so the observed
     resident sizes within the call must strictly decrease. *)
  Alcotest.(check bool)
    "no re-grow within one reclaim" true
    (strictly_decreasing (before :: seq));
  Alcotest.(check int) "one effective shrink" 1 (Midcache.Cache.shrinks c);
  Alcotest.(check int) "shrunk bytes tallied" freed
    (Midcache.Cache.shrunk_bytes c);
  (* A shrink that frees nothing is not an effective shrink. *)
  let c2 = mk () in
  Alcotest.(check int) "empty cache frees 0" 0 (Midcache.Cache.shrink c2 100);
  Alcotest.(check int) "and counts no shrink" 0 (Midcache.Cache.shrinks c2)

let test_charge_hook_refusal () =
  (* External accounting (a memory clerk) vetoes: the cache evicts and
     retries, and when the hook never relents the insert is refused with
     nothing resident and the books balanced. *)
  let allow = ref true in
  let charged = ref 0 in
  let charge n =
    if !allow then begin
      charged := !charged + n;
      true
    end
    else false
  in
  let release n = charged := !charged - n in
  let c = mk ~charge ~release ~budget:100 ~max_entry:100 () in
  assert (Midcache.Cache.put c ~now:0. ~key:"a" ~bytes:40 ~rels:[ "r" ]);
  allow := false;
  Alcotest.(check bool)
    "vetoed insert refused" false
    (Midcache.Cache.put c ~now:0. ~key:"b" ~bytes:40 ~rels:[ "r" ]);
  Alcotest.(check int)
    "books balance resident" (Midcache.Cache.resident c) !charged;
  allow := true;
  assert (Midcache.Cache.put c ~now:0. ~key:"c" ~bytes:40 ~rels:[ "r" ]);
  Alcotest.(check int)
    "books still balance" (Midcache.Cache.resident c) !charged

let test_demand_hint_window () =
  let c = mk ~budget:100 ~max_entry:100 () in
  assert (Midcache.Cache.put c ~now:0. ~key:"a" ~bytes:60 ~rels:[ "r" ]);
  assert (Midcache.Cache.put c ~now:1. ~key:"b" ~bytes:60 ~rels:[ "r" ]);
  (* b displaced a: unmet demand is the 60 evicted bytes on top of the
     60 resident. *)
  Alcotest.(check int) "hint = resident + evicted" 120
    (Midcache.Cache.demand_hint c);
  Alcotest.(check int)
    "window resets once reported" 60
    (Midcache.Cache.demand_hint c);
  (* Staleness drops (invalidation) are not unmet demand. *)
  ignore (Midcache.Cache.invalidate c "r");
  Alcotest.(check int) "invalidation not in hint" 0
    (Midcache.Cache.demand_hint c)

(* ------------------------------------------------------------------ *)
(* QCheck: fuzzed interleavings against a shadow model *)

type op =
  | Get of int
  | Put of int * int * int list  (* key, bytes, rels *)
  | Invalidate of int
  | Shrink of int
  | Set_budget of int
  | Bypass
  | Advance of int  (* tenths of a second *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Get k) (int_range 0 7));
        ( 4,
          map3
            (fun k b rels -> Put (k, b, rels))
            (int_range 0 7) (int_range 1 80)
            (list_size (int_range 1 2) (int_range 0 3)) );
        (1, map (fun r -> Invalidate r) (int_range 0 3));
        (1, map (fun n -> Shrink n) (int_range 1 150));
        (1, map (fun n -> Set_budget n) (int_range 20 150));
        (1, return Bypass);
        (2, map (fun dt -> Advance dt) (int_range 1 40));
      ])

let pp_op = function
  | Get k -> Printf.sprintf "Get k%d" k
  | Put (k, b, rels) ->
      Printf.sprintf "Put k%d %db [%s]" k b
        (String.concat ";" (List.map (Printf.sprintf "r%d") rels))
  | Invalidate r -> Printf.sprintf "Invalidate r%d" r
  | Shrink n -> Printf.sprintf "Shrink %d" n
  | Set_budget n -> Printf.sprintf "Set_budget %d" n
  | Bypass -> "Bypass"
  | Advance dt -> Printf.sprintf "Advance %d" dt

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 200) op_gen)

(* The shadow model is an association list key -> (bytes, rels, expiry).
   It never evicts for space, so the real cache's live set is a subset of
   the model's: a real hit outside the model is a staleness violation —
   the entry was invalidated (or expired, or replaced with different
   bytes) after insertion and served anyway. *)
let prop_fuzzed_interleavings =
  QCheck.Test.make ~name:"fuzzed op interleavings respect the shadow model"
    ~count:300 ops_arbitrary (fun ops ->
      let ttl = 10. in
      let charged = ref 0 in
      let charge n =
        charged := !charged + n;
        true
      and release n = charged := !charged - n in
      let c =
        Midcache.Cache.create ~charge ~release ~budget:100
          { Midcache.Cache.ttl; max_entry_bytes = 90 }
      in
      let model = Hashtbl.create 16 in
      let now = ref 0. in
      let key k = Printf.sprintf "k%d" k in
      let rel r = Printf.sprintf "r%d" r in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iter
        (fun op ->
          (match op with
          | Advance dt -> now := !now +. (0.1 *. float_of_int dt)
          | Get k -> (
              match Midcache.Cache.get c ~now:!now (key k) with
              | None -> ()
              | Some got -> (
                  (* Invariant (a): a hit must match a live, unexpired,
                     never-invalidated-since-insert model entry. *)
                  match Hashtbl.find_opt model (key k) with
                  | None ->
                      fail "hit on %s which the model invalidated" (key k)
                  | Some (bytes, _, expiry) ->
                      if got <> bytes then
                        fail "hit on %s returned %d bytes, model has %d"
                          (key k) got bytes;
                      if !now >= expiry then
                        fail "hit on %s at %.1f past expiry %.1f" (key k)
                          !now expiry))
          | Put (k, b, rels) ->
              let rels = List.map rel rels in
              if Midcache.Cache.put c ~now:!now ~key:(key k) ~bytes:b ~rels
              then
                Hashtbl.replace model (key k)
                  (b, rels, !now +. ttl)
              else
                (* Refused or evicted-on-arrival: either way the cache
                   must not serve this key with these bytes later unless
                   re-inserted; dropping it from the model keeps the
                   subset relation. *)
                Hashtbl.remove model (key k)
          | Invalidate r ->
              ignore (Midcache.Cache.invalidate c (rel r));
              Hashtbl.iter
                (fun k (_, rels, _) ->
                  if List.mem (rel r) rels then Hashtbl.remove model k)
                (Hashtbl.copy model)
          | Shrink n -> ignore (Midcache.Cache.shrink c n)
          | Set_budget n -> Midcache.Cache.set_budget c n
          | Bypass -> Midcache.Cache.note_bypass c);
          (* Invariant (b): resident never exceeds the granted budget,
             and the external accounting agrees byte-for-byte. *)
          if Midcache.Cache.resident c > Midcache.Cache.budget c then
            fail "resident %d over budget %d after %s"
              (Midcache.Cache.resident c) (Midcache.Cache.budget c) (pp_op op);
          if Midcache.Cache.resident c <> !charged then
            fail "resident %d but %d charged after %s"
              (Midcache.Cache.resident c) !charged (pp_op op))
        ops;
      (* Invariant (c): every request is classified exactly once. *)
      if
        Midcache.Cache.requests c
        <> Midcache.Cache.hits c + Midcache.Cache.misses c
           + Midcache.Cache.bypasses c
      then
        fail "conservation: %d requests <> %d hits + %d misses + %d bypasses"
          (Midcache.Cache.requests c) (Midcache.Cache.hits c)
          (Midcache.Cache.misses c)
          (Midcache.Cache.bypasses c);
      true)

(* ------------------------------------------------------------------ *)
(* End-to-end acceptance: the Cached experiment's dynamics *)

let quick_cfg mode =
  {
    Server.Cached.default_config with
    Server.Cached.k_mode = mode;
    k_clients = 16;
    k_variants = 32;
    k_warmup = 120.;
    k_measure = 400.;
    k_seed = 42;
  }

(* Computed once, shared by the acceptance tests below (each outcome is a
   pure function of its config, so sharing is safe). *)
let acceptance = lazy (
  let off = Server.Cached.run (quick_cfg Server.Cached.Cache_off) in
  let brokered = Server.Cached.run (quick_cfg Server.Cached.Cache_brokered) in
  let squeezed =
    Server.Cached.run
      { (quick_cfg Server.Cached.Cache_brokered) with
        Server.Cached.k_ballast_gib = 3. }
  in
  (off, brokered, squeezed))

let test_brokered_beats_off () =
  let off, brokered, _ = Lazy.force acceptance in
  let open Server.Cached in
  Alcotest.(check bool)
    "hits happened at a 60% parameterized mix" true (brokered.hits > 0);
  (* Seed audit (test/seed_audit.exe): across seeds 1..20 the uplift
     spans [1.000, 1.365] — brokered never loses to cache-off at this
     config at any audited seed. *)
  Alcotest.(check bool)
    (Printf.sprintf "throughput uplift %.2fx >= 1.0"
       (uplift brokered ~over:off))
    true
    (uplift brokered ~over:off >= 1.0);
  (* The admission drop is a property of this pinned seed (audited
     spread is [-19, +9]: a faster brokered run can submit *more*
     queries and re-gain admissions); the seed-robust displacement claim
     is the compile count below. *)
  Alcotest.(check bool)
    (Printf.sprintf "gateway admissions drop (%d -> %d)" off.gw_acquires
       brokered.gw_acquires)
    true
    (brokered.gw_acquires < off.gw_acquires);
  Alcotest.(check bool)
    "cache hits displace engine compiles" true
    (brokered.compiles < off.compiles + off.bypasses);
  Alcotest.(check int)
    "conservation at the experiment layer" brokered.requests
    (brokered.hits + brokered.misses + brokered.bypasses);
  Alcotest.(check int)
    "cache-off is all bypasses" off.requests off.bypasses

let test_ballast_shrinks_gracefully () =
  let _, brokered, squeezed = Lazy.force acceptance in
  let open Server.Cached in
  (* Both shrink-count assertions are properties of this pinned seed:
     the audit's calm-shrink spread is [0, 5] (ambient pressure can
     squeeze a few times at other seeds) and the ballast spread [0, 5].
     Seed 42 pins the designed contrast — calm baseline untouched,
     ballast forcing the broker's hand. *)
  Alcotest.(check int)
    "no broker squeeze without ballast" 0 brokered.shrink_events;
  Alcotest.(check bool)
    (Printf.sprintf "ballast forces shrinks (%d)" squeezed.shrink_events)
    true (squeezed.shrink_events > 0);
  Alcotest.(check bool)
    "shrinks release bytes" true (squeezed.shrink_freed > 0);
  (* Graceful degradation: pressure costs throughput but the run keeps
     completing work. Seed audit: retention spans [0.750, 0.948] across
     seeds 1..20, so (0.5, 1.2) bounds every audited seed with margin. *)
  let retention = uplift squeezed ~over:brokered in
  Alcotest.(check bool)
    (Printf.sprintf "throughput retention %.2f in (0.5, 1.2)" retention)
    true
    (retention > 0.5 && retention < 1.2)

let test_jobs_identity () =
  (* The acceptance criterion verbatim: the same cells through the domain
     pool and inline must be byte-identical, Marshal-compared. *)
  let cells =
    List.map
      (fun mode ->
        {
          (quick_cfg mode) with
          Server.Cached.k_seed = 11;
          k_clients = 8;
          k_variants = 12;
          k_warmup = 60.;
          k_measure = 180.;
        })
      [
        Server.Cached.Cache_off;
        Server.Cached.Cache_fixed;
        Server.Cached.Cache_brokered;
      ]
  in
  let seq = Parallel.Pool.run ~jobs:1 Server.Cached.run cells in
  let par = Parallel.Pool.run ~jobs:4 Server.Cached.run cells in
  Alcotest.(check bool)
    "jobs 1 and jobs 4 bit-identical" true
    (String.equal
       (Marshal.to_string seq [ Marshal.No_sharing ])
       (Marshal.to_string par [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Traffic mix plumbing *)

let test_mixed_templates_ratio_bounds () =
  (* Both pure regimes must produce non-empty, weight-positive pools —
     weighted_choice rejects zero-weight groups. *)
  let all_param = Workload.Mix.mixed_templates ~ratio:1.0 ~variants:8 () in
  let all_adhoc = Workload.Mix.mixed_templates ~ratio:0.0 ~variants:8 () in
  Alcotest.(check bool) "ratio 1.0 non-empty" true (all_param <> []);
  Alcotest.(check bool) "ratio 0.0 non-empty" true (all_adhoc <> []);
  List.iter
    (fun (t : Workload.Template.t) ->
      Alcotest.(check bool) "positive weight" true (t.Workload.Template.weight > 0.))
    (all_param @ all_adhoc);
  Alcotest.check_raises "ratio out of range"
    (Invalid_argument "Mix.mixed_templates: ratio outside [0, 1]") (fun () ->
      ignore (Workload.Mix.mixed_templates ~ratio:1.5 ~variants:8 ()))

let test_diurnal_curve () =
  let think =
    Workload.Mix.think_of
      ~diurnal:{ Workload.Mix.period = 100.; peak_load = 4. }
      ~base:60. ()
  in
  Alcotest.(check (float 1e-6)) "trough at t=0 is the base" 60. (think 0.);
  Alcotest.(check (float 1e-6))
    "peak at half period divides think by peak_load" 15. (think 50.);
  Alcotest.(check (float 1e-6)) "periodic" 60. (think 100.);
  let flat = Workload.Mix.think_of ~base:60. () in
  Alcotest.(check (float 1e-6)) "no curve is constant" 60. (flat 123.)

(* With zero think time every client is a tight loop, and the run would
   report a meaningless throughput; the runner refuses the config. *)
let test_rejects_non_positive_think () =
  List.iter
    (fun think ->
      Alcotest.check_raises
        (Printf.sprintf "think %g" think)
        (Invalid_argument "Cached.run: think <= 0")
        (fun () ->
          ignore
            (Server.Cached.run
               { Server.Cached.default_config with k_think = think })))
    [ 0.; -5. ]

(* ------------------------------------------------------------------ *)
(* The cache key, written straight into one buffer, against the old
   render-then-cut key and [sprintf] rendering kept in the oracle. *)

let test_key_matches_oracle () =
  let instances ts =
    List.concat_map
      (fun (t : Workload.Template.t) ->
        List.init 4 (fun i ->
            Workload.Template.instance (Sim.Rng.create (31 * i)) t ~id:(i + 1)))
      ts
  in
  let queries =
    instances (Workload.Sales.templates ())
    @ instances (Workload.Sales.parameterized_templates ~variants:12 ())
    @ instances (Workload.Tpch.templates ())
    @ instances (Workload.Snowflake.templates ())
    @ [ (Workload.Sales.diagnostic_template ()).instantiate (Sim.Rng.create 1) 1 ]
  in
  List.iter
    (fun q ->
      let qid = q.Optimizer.Query.qid in
      Alcotest.(check string) (qid ^ ": sql") (Oracle.Sql_ref.to_sql q)
        (Optimizer.Query.to_sql q);
      Alcotest.(check string) (qid ^ ": key") (Oracle.Sql_ref.key_of_query q)
        (Midcache.Frontend.key_of_query q))
    queries

(* ------------------------------------------------------------------ *)
(* Statement identity: one statement exactly when one key *)

(* Every template the property draws from: the SALES ad-hoc shapes, its
   parameterized variants, TPC-H, snowflake and the diagnostic. *)
let identity_templates =
  Array.of_list
    (Workload.Sales.templates ()
    @ Workload.Sales.parameterized_templates ~variants:12 ()
    @ Workload.Tpch.templates ()
    @ Workload.Snowflake.templates ()
    @ [ Workload.Sales.diagnostic_template () ])

(* An instance is a template, an rng seed and a serial. Drawing the seed
   from four values makes distinct instances with the same literals
   common: the same statement under different serials. *)
let instance_gen =
  QCheck.Gen.(
    triple (int_bound (Array.length identity_templates - 1)) (int_bound 3)
      (int_range 1 999))

let instantiate (t, seed, id) =
  Workload.Template.instance (Sim.Rng.create seed) identity_templates.(t) ~id

let prop_statement_identity =
  QCheck.Test.make ~name:"same statement = same key, and equal hashes"
    ~count:200
    (QCheck.make
       ~print:(fun l ->
         String.concat "; "
           (List.map (fun (t, s, i) -> Printf.sprintf "(%d,%d,%d)" t s i) l))
       QCheck.Gen.(list_size (int_range 2 16) instance_gen))
    (fun descrs ->
      (* Fresh instances, so each hash is computed here (a parameterized
         variant hands out one shared query, memo and all). *)
      let qs = List.map instantiate descrs in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let same = Optimizer.Query.same_statement a b in
              let keyed =
                String.equal (Midcache.Frontend.key_of_query a)
                  (Midcache.Frontend.key_of_query b)
              in
              if same <> keyed then
                QCheck.Test.fail_reportf "%s vs %s: same_statement %b, keys equal %b"
                  a.Optimizer.Query.qid b.Optimizer.Query.qid same keyed;
              (not same)
              || Optimizer.Query.statement_hash a = Optimizer.Query.statement_hash b)
            qs)
        qs)

(* ------------------------------------------------------------------ *)
(* The int-keyed front end against the string-keyed oracle *)

(* Eight statements of the midcache_rw mix, two instances each under
   different serials, so one statement can have two misses in flight. *)
let differential_pool =
  let templates =
    Array.of_list (Workload.Mix.mixed_templates ~ratio:0.6 ~variants:4 ())
  in
  Array.init 16 (fun i ->
      let k = i / 2 in
      Workload.Template.instance
        (Sim.Rng.create (k / Array.length templates))
        templates.(k mod Array.length templates)
        ~id:(i + 1))

let differential_rels = [| "sales"; "customer"; "product"; "store"; "promotion" |]

type dop =
  | Submit of int  (* a lookup; a miss joins the in-flight list *)
  | Complete of int  (* the n-th miss in flight stores its result *)
  | Write of int
  | Advance of int  (* seconds; past the ttl, entries expire *)
  | Shrink of int  (* KiB *)
  | Budget of int  (* KiB *)

let pp_dop = function
  | Submit q -> Printf.sprintf "Submit %d" q
  | Complete n -> Printf.sprintf "Complete %d" n
  | Write r -> Printf.sprintf "Write %s" differential_rels.(r)
  | Advance s -> Printf.sprintf "Advance %ds" s
  | Shrink k -> Printf.sprintf "Shrink %dKiB" k
  | Budget k -> Printf.sprintf "Budget %dKiB" k

let dop_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun q -> Submit q) (int_bound (Array.length differential_pool - 1)));
        (5, map (fun n -> Complete n) (int_bound 3));
        (2, map (fun r -> Write r) (int_bound (Array.length differential_rels - 1)));
        (2, map (fun s -> Advance s) (int_range 1 40));
        (1, map (fun k -> Shrink k) (int_range 1 4096));
        (1, map (fun k -> Budget k) (int_range 64 16384));
      ])

let prop_frontend_matches_oracle =
  QCheck.Test.make ~name:"int-keyed front end = string-keyed oracle"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_dop ops))
       QCheck.Gen.(list_size (int_range 1 120) dop_gen))
    (fun ops ->
      let cfg = { Midcache.Cache.ttl = 60.; max_entry_bytes = 4 * 1024 * 1024 } in
      let budget = 8 * 1024 * 1024 in
      let eng = Sim.Engine.create ~seed:1 () in
      let trace = Obs.Trace.create () and ref_trace = Obs.Trace.create () in
      let cache = Midcache.Cache.create ~budget cfg in
      let fe =
        Midcache.Frontend.create ~trace eng ~cache:(Some cache)
          ~submit:(fun _ -> Ok ())
          ()
      in
      let oracle = Oracle.Midcache_ref.create ~trace:ref_trace ~budget cfg in
      let in_flight = ref [] in
      let agree op =
        let check what a b =
          if a <> b then
            QCheck.Test.fail_reportf "after %s: %s %d, oracle %d" (pp_dop op) what a b
        in
        let module C = Midcache.Cache in
        let module R = Oracle.Midcache_ref in
        check "hits" (C.hits cache) (R.hits oracle);
        check "misses" (C.misses cache) (R.misses oracle);
        check "stores" (C.stores cache) (R.stores oracle);
        check "refused" (C.refused cache) (R.refused oracle);
        check "evictions" (C.evictions cache) (R.evictions oracle);
        check "expired" (C.expired cache) (R.expired oracle);
        check "invalidated" (C.invalidated cache) (R.invalidated oracle);
        check "resident" (C.resident cache) (R.resident oracle);
        check "entries" (C.entries cache) (R.entries oracle);
        check "interned" (Midcache.Frontend.interned fe) (C.entries cache);
        check "invalidated entries"
          (Midcache.Frontend.invalidated_entries fe)
          (R.invalidated_entries oracle);
        if Obs.Trace.records trace <> Obs.Trace.records ref_trace then
          QCheck.Test.fail_reportf "after %s: the traces differ" (pp_dop op)
      in
      let run op =
        let now = Sim.Engine.now eng in
        (match op with
        | Submit i ->
            let q = differential_pool.(i) in
            let hit = Midcache.Frontend.lookup fe ~now q in
            if hit <> Oracle.Midcache_ref.lookup oracle ~now q then
              QCheck.Test.fail_reportf "after %s: the lookups differ" (pp_dop op);
            if hit = None then in_flight := !in_flight @ [ q ]
        | Complete n -> (
            match List.nth_opt !in_flight n with
            | None -> ()
            | Some q ->
                in_flight := List.filteri (fun j _ -> j <> n) !in_flight;
                Midcache.Frontend.store fe ~now q;
                Oracle.Midcache_ref.store oracle ~now q)
        | Write r ->
            let rels = [ differential_rels.(r) ] in
            Midcache.Frontend.write fe ~rels;
            Oracle.Midcache_ref.write oracle ~now ~rels
        | Advance s -> Sim.Engine.sleep (float_of_int s)
        | Shrink k ->
            let freed = Midcache.Cache.shrink cache (1024 * k) in
            if freed <> Oracle.Midcache_ref.shrink oracle (1024 * k) then
              QCheck.Test.fail_reportf "after %s: shrinks freed differently" (pp_dop op)
        | Budget k ->
            Midcache.Cache.set_budget cache (1024 * k);
            Oracle.Midcache_ref.set_budget oracle (1024 * k));
        agree op
      in
      (* Inside a process, so [Advance] moves the clock the front end's
         writes read. *)
      Sim.Engine.spawn eng ~name:"ops" (fun () -> List.iter run ops);
      Sim.Engine.run_all eng;
      true)

let suite =
  [
    ("ttl boundary is a miss", `Quick, test_ttl_boundary);
    ("ttl <= 0 disables expiry", `Quick, test_ttl_disabled);
    ("invalidate by relation", `Quick, test_invalidate_by_relation);
    ("lru order under mixed sizes", `Quick, test_lru_mixed_sizes);
    ("oversized and empty payloads refused", `Quick, test_oversized_refused);
    ("set_budget evicts to fit", `Quick, test_set_budget_evicts);
    ("shrink is monotone, no re-grow", `Quick, test_shrink_monotonic);
    ("charge-hook veto refuses cleanly", `Quick, test_charge_hook_refusal);
    ("demand hint windows evictions", `Quick, test_demand_hint_window);
    ("key = rendered-and-cut oracle", `Quick, test_key_matches_oracle);
    QCheck_alcotest.to_alcotest prop_statement_identity;
    QCheck_alcotest.to_alcotest prop_frontend_matches_oracle;
    QCheck_alcotest.to_alcotest prop_fuzzed_interleavings;
    ("mixed templates at ratio bounds", `Quick, test_mixed_templates_ratio_bounds);
    ("diurnal think curve", `Quick, test_diurnal_curve);
    ("non-positive think rejected", `Quick, test_rejects_non_positive_think);
    ("brokered beats cache-off", `Slow, test_brokered_beats_off);
    ("ballast shrinks the cache gracefully", `Slow, test_ballast_shrinks_gracefully);
    ("parallel fan-out bit-identical", `Slow, test_jobs_identity);
  ]
