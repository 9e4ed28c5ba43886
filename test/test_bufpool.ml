(* Tests for the disk model, replacement policies, and the buffer pool. *)

open Bufpool

let mib = Dbmem.Units.mib

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk_service_time () =
  let eng = Sim.Engine.create () in
  (* 4 spindles x 100 B/s aggregate to 400 B/s. *)
  let d = Disk.create eng ~spindles:4 ~seek_s:0.5 ~throughput_bytes_per_s:100. in
  Alcotest.(check (float 1e-9)) "seek + transfer" 1.5 (Disk.service_time d ~bytes:400)

let test_disk_read_blocks_for_duration () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~spindles:1 ~seek_s:1.0 ~throughput_bytes_per_s:100. in
  let finished = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Disk.read d ~bytes:200;
      finished := Sim.Engine.now eng);
  Sim.Engine.run_all eng;
  Alcotest.(check (float 1e-9)) "1s seek + 2s transfer" 3.0 !finished;
  Alcotest.(check int) "bytes" 200 (Disk.bytes_read d);
  Alcotest.(check int) "reads" 1 (Disk.reads d)

let test_disk_concurrent_reads_queue () =
  let eng = Sim.Engine.create () in
  (* Aggregate model: one server; two simultaneous reads serialize. *)
  let d = Disk.create eng ~spindles:2 ~seek_s:0. ~throughput_bytes_per_s:50. in
  let done_times = ref [] in
  for _ = 1 to 2 do
    Sim.Engine.spawn eng (fun () ->
        Disk.read d ~bytes:100;
        done_times := Sim.Engine.now eng :: !done_times)
  done;
  Sim.Engine.run_all eng;
  (* 100 bytes at 100 B/s aggregate = 1 s each, serialized: 1 s and 2 s. *)
  Alcotest.(check (list (float 1e-9))) "serialized" [ 2.0; 1.0 ] !done_times

let test_disk_zero_bytes_instant () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~spindles:1 ~seek_s:1.0 ~throughput_bytes_per_s:100. in
  let finished = ref (-1.) in
  Sim.Engine.spawn eng (fun () ->
      Disk.read d ~bytes:0;
      finished := Sim.Engine.now eng);
  Sim.Engine.run_all eng;
  Alcotest.(check (float 1e-9)) "no transfer no wait" 0.0 !finished

let test_disk_write_accounting () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~spindles:1 ~seek_s:0. ~throughput_bytes_per_s:100. in
  Sim.Engine.spawn eng (fun () -> Disk.write d ~bytes:300);
  Sim.Engine.run_all eng;
  Alcotest.(check int) "written" 300 (Disk.bytes_written d);
  Alcotest.(check int) "not counted as read" 0 (Disk.bytes_read d)

(* ------------------------------------------------------------------ *)
(* Policies *)

(* Keys of table 0 are plain page numbers. *)
let page i = i

let test_lru_evicts_oldest () =
  let p = Policy.create Policy.Lru in
  List.iter (fun i -> Policy.insert p (page i)) [ 1; 2; 3 ];
  ignore (Policy.touch p (page 1));
  (* Order of last use: 2, 3, 1. *)
  Alcotest.(check int) "evict 2" (page 2) (Policy.evict p);
  Alcotest.(check int) "evict 3" (page 3) (Policy.evict p);
  Alcotest.(check int) "evict 1" (page 1) (Policy.evict p);
  Alcotest.(check int) "empty" (-1) (Policy.evict p)

let test_clock_second_chance () =
  let p = Policy.create Policy.Clock in
  List.iter (fun i -> Policy.insert p (page i)) [ 1; 2; 3 ];
  ignore (Policy.touch p (page 1));
  (* 1 has its reference bit set: the hand skips it once and takes 2. *)
  Alcotest.(check int) "evict 2" (page 2) (Policy.evict p);
  Alcotest.(check int) "evict 3" (page 3) (Policy.evict p);
  Alcotest.(check int) "then 1" (page 1) (Policy.evict p)

let test_lru2_scan_resistance () =
  let p = Policy.create Policy.Lru2 in
  (* Two hot pages, touched twice. *)
  Policy.insert p (page 100);
  Policy.insert p (page 101);
  ignore (Policy.touch p (page 100));
  ignore (Policy.touch p (page 101));
  (* A scan floods ten one-touch pages. *)
  for i = 0 to 9 do
    Policy.insert p (page i)
  done;
  (* All ten scan pages must be evicted before either hot page. *)
  for _ = 1 to 10 do
    let v = Policy.evict p in
    if v < 0 then Alcotest.fail "premature empty";
    Alcotest.(check bool) "scan page first" true (v < 100)
  done;
  Alcotest.(check int) "hot pages survive" 2 (Policy.size p)

(* LRU-2 keeps once-touched pages in a FIFO ring and re-referenced
   pages in a (t2, t1) heap; these pin the order the split must give. *)
let drain p =
  let rec go acc =
    let v = Policy.evict p in
    if v < 0 then List.rev acc else go (v :: acc)
  in
  go []

let inserts p = List.iter (fun i -> Policy.insert p (page i))
let touches p = List.iter (fun i -> ignore (Policy.touch p (page i)))
let victims = Alcotest.(check (list int))

let test_lru2_fifo_before_heap () =
  let p = Policy.create Policy.Lru2 in
  inserts p [ 10; 11 ];
  touches p [ 10; 11 ];
  inserts p [ 3; 1; 2; 5; 4 ];
  victims "once-touched pages in insertion order, then the heap"
    [ 3; 1; 2; 5; 4; 10; 11 ] (drain p)

let test_lru2_second_touch_leaves_fifo () =
  let p = Policy.create Policy.Lru2 in
  inserts p [ 1; 2; 3 ];
  touches p [ 1 ];
  inserts p [ 4; 5 ];
  victims "the re-referenced page outlives later one-touch inserts"
    [ 2; 3; 4; 5; 1 ] (drain p)

let test_lru2_heap_order () =
  let p = Policy.create Policy.Lru2 in
  (* Stamps: 1 and 2 inserted at 1 and 2; touches at 3 (page 1), 4 and
     5 (page 2), 6 (page 1), so t2 is 3 for page 1 and 4 for page 2,
     while page 2's last touch is the older one. Page 3 goes in at 7
     and is touched at 8. *)
  inserts p [ 1; 2 ];
  touches p [ 1; 2; 2; 1 ];
  inserts p [ 3 ];
  touches p [ 3 ];
  victims "an empty ring leaves (t2, t1) order, not LRU order"
    [ 1; 2; 3 ] (drain p)

let test_lru2_insert_after_drain () =
  let p = Policy.create Policy.Lru2 in
  inserts p [ 1; 2 ];
  touches p [ 1; 2 ];
  inserts p [ 3 ];
  Alcotest.(check int) "the ring goes first" (page 3) (Policy.evict p);
  inserts p [ 4 ];
  victims "a page inserted into the drained ring precedes the heap"
    [ 4; 1; 2 ] (drain p)

let kinds = [ Policy.Lru; Policy.Clock; Policy.Lru2 ]

let test_policy_mem_and_size () =
  List.iter
    (fun kind ->
      let p = Policy.create kind in
      Policy.insert p (page 1);
      Policy.insert p (page 2);
      Alcotest.(check bool) "mem" true (Policy.mem p (page 1));
      Alcotest.(check bool) "not mem" false (Policy.mem p (page 9));
      Alcotest.(check bool) "touch reports a hit" true (Policy.touch p (page 2));
      Alcotest.(check bool) "touch reports a miss" false (Policy.touch p (page 9));
      Alcotest.(check bool) "absent touch inserts nothing" false
        (Policy.mem p (page 9));
      Alcotest.(check int) "size" 2 (Policy.size p);
      ignore (Policy.evict p);
      Alcotest.(check int) "size after evict" 1 (Policy.size p))
    kinds

let test_policy_insert_resident_rejected () =
  List.iter
    (fun kind ->
      let p = Policy.create kind in
      Policy.insert p (page 1);
      Alcotest.(check bool) "second insert rejected" true
        (try
           Policy.insert p (page 1);
           false
         with Invalid_argument _ -> true);
      Alcotest.(check int) "still one page" 1 (Policy.size p);
      Alcotest.(check int) "evicts it" (page 1) (Policy.evict p);
      Alcotest.(check int) "then empty" (-1) (Policy.evict p))
    kinds

(* Property: every policy returns each inserted page exactly once across
   evictions, regardless of the touch pattern. *)
let prop_policy_complete_eviction =
  QCheck.Test.make ~name:"policies evict every resident page exactly once" ~count:100
    QCheck.(pair (int_range 0 2) (list (int_range 0 9)))
    (fun (kind_idx, touches) ->
      let kind = [| Policy.Lru; Policy.Clock; Policy.Lru2 |].(kind_idx) in
      let p = Policy.create kind in
      for i = 0 to 9 do
        Policy.insert p (page i)
      done;
      List.iter (fun i -> ignore (Policy.touch p (page i))) touches;
      let evicted = ref [] in
      let rec drain () =
        let v = Policy.evict p in
        if v >= 0 then begin
          evicted := v :: !evicted;
          drain ()
        end
      in
      drain ();
      List.sort compare !evicted = List.init 10 (fun i -> page i))

(* Differential oracle: the flat policies against the tuple-keyed ones
   they replaced (test/oracle/policy_ref.ml). Same victims in the same
   order, same residency answers, same sizes, on random mixes over
   several tables, page numbers near 2^40 and a table id near 2^22.
   Runs of inserts ([Fill]) grow the slot columns and the index past
   their initial 64 slots; runs of touches ([Retouch]) move many pages
   into LRU-2's heap, so evictions also run with a large heap behind an
   empty ring. *)
module Ref = Oracle.Policy_ref

type op =
  | Insert of int * int
  | Fill of int * int * int
  | Retouch of int * int * int
  | Touch of int * int
  | Mem of int * int
  | Evict
  | Drain

let pack (table, pg) = (table lsl 40) lor pg
let unpack key = if key < 0 then None else Some (key lsr 40, key land ((1 lsl 40) - 1))

let gen_ops =
  let open QCheck.Gen in
  let table = oneofl [ 0; 1; 2; (1 lsl 22) - 1 ] in
  let pg =
    pair table
      (frequency
         [
           (3, int_range 0 11);
           (1, int_range 0 199);
           (1, map (fun d -> (1 lsl 40) - 1 - d) (int_range 0 3));
         ])
  in
  list_size (int_range 0 200)
    (frequency
       [
         (5, map (fun (t, p) -> Insert (t, p)) pg);
         (1, map3 (fun t f c -> Fill (t, f, c)) table (int_range 0 150) (int_range 0 80));
         (1, map3 (fun t f c -> Retouch (t, f, c)) table (int_range 0 150) (int_range 0 80));
         (5, map (fun (t, p) -> Touch (t, p)) pg);
         (2, map (fun (t, p) -> Mem (t, p)) pg);
         (2, return Evict);
         (1, return Drain);
       ])

let show_op = function
  | Insert (t, p) -> Printf.sprintf "insert(%d,%d)" t p
  | Fill (t, f, c) -> Printf.sprintf "fill(%d,%d,%d)" t f c
  | Retouch (t, f, c) -> Printf.sprintf "retouch(%d,%d,%d)" t f c
  | Touch (t, p) -> Printf.sprintf "touch(%d,%d)" t p
  | Mem (t, p) -> Printf.sprintf "mem(%d,%d)" t p
  | Evict -> "evict"
  | Drain -> "drain"

let agrees kind ref_kind ops =
  let p = Policy.create kind and r = Ref.create ref_kind in
  let rec drain () =
    let v = Ref.evict r in
    unpack (Policy.evict p) = v && (v = None || drain ())
  in
  (* Inserting a resident page is outside both contracts. *)
  let insert t pg =
    if not (Ref.mem r (t, pg)) then begin
      Ref.insert r (t, pg);
      Policy.insert p (pack (t, pg))
    end
  in
  let touch t pg =
    let resident = Ref.mem r (t, pg) in
    Ref.touch r (t, pg);
    Policy.touch p (pack (t, pg)) = resident
  in
  let rec retouch t pg last = pg > last || (touch t pg && retouch t (pg + 1) last) in
  let step = function
    | Insert (t, pg) ->
        insert t pg;
        true
    | Fill (t, first, count) ->
        for pg = first to first + count - 1 do
          insert t pg
        done;
        true
    | Retouch (t, first, count) -> retouch t first (first + count - 1)
    | Touch (t, pg) -> touch t pg
    | Mem (t, pg) -> Policy.mem p (pack (t, pg)) = Ref.mem r (t, pg)
    | Evict -> unpack (Policy.evict p) = Ref.evict r
    | Drain -> drain ()
  in
  List.for_all (fun op -> step op && Policy.size p = Ref.size r) ops && drain ()

let prop_policy_matches_oracle (name, kind, ref_kind) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches the reference policy" name)
    ~count:1000
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_op ops))
       gen_ops)
    (agrees kind ref_kind)

let oracle_props =
  List.map prop_policy_matches_oracle
    [
      ("lru", Policy.Lru, Ref.Lru);
      ("clock", Policy.Clock, Ref.Clock);
      ("lru-2", Policy.Lru2, Ref.Lru2);
    ]

(* ------------------------------------------------------------------ *)
(* Pool *)

let make_pool ?(total = mib 64) ?(page_bytes = mib 1) ?(policy = Policy.Lru) () =
  let eng = Sim.Engine.create () in
  let manager = Dbmem.Manager.create ~total () in
  let clerk = Dbmem.Manager.create_clerk manager "bufpool" in
  let disk =
    Disk.create eng ~spindles:1 ~seek_s:0.001
      ~throughput_bytes_per_s:(float_of_int (mib 100))
  in
  let pool = Pool.create ~clerk ~disk ~page_bytes ~policy in
  (eng, manager, disk, pool)

let in_process eng f =
  Sim.Engine.spawn eng f;
  Sim.Engine.run_all eng

let test_pool_hit_miss_accounting () =
  let eng, _, _, pool = make_pool () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () ->
      Pool.read pool ~table:t ~page:0;
      Pool.read pool ~table:t ~page:0;
      Pool.read pool ~table:t ~page:1);
  Alcotest.(check int) "hits" 1 (Pool.hits pool);
  Alcotest.(check int) "misses" 2 (Pool.misses pool);
  Alcotest.(check (float 1e-9)) "hit rate" (1. /. 3.) (Pool.hit_rate pool)

let test_pool_miss_costs_io_hit_does_not () =
  let eng, _, disk, pool = make_pool () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () ->
      Pool.read pool ~table:t ~page:0;
      let bytes_after_miss = Disk.bytes_read disk in
      Pool.read pool ~table:t ~page:0;
      Alcotest.(check int) "hit causes no io" bytes_after_miss (Disk.bytes_read disk))

let test_pool_resident_equals_clerk () =
  let eng, manager, _, pool = make_pool () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:10);
  Alcotest.(check int) "resident bytes = clerk usage"
    (Pool.resident_bytes pool)
    (Dbmem.Manager.used manager);
  Alcotest.(check int) "10 pages resident" 10 (Pool.resident_pages pool);
  Alcotest.(check int) "pages * page_bytes" (10 * mib 1) (Pool.resident_bytes pool)

let test_pool_recycles_when_memory_full () =
  (* 8 MiB of memory, 1 MiB granules: reading 20 pages must work, keeping
     residency at 8 and evicting internally. *)
  let eng, manager, _, pool = make_pool ~total:(mib 8) () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:20);
  Alcotest.(check int) "capped residency" (mib 8) (Pool.resident_bytes pool);
  Alcotest.(check bool) "evictions happened" true (Pool.evictions pool >= 12);
  Alcotest.(check int) "manager consistent" (mib 8) (Dbmem.Manager.used manager)

let test_pool_shrink () =
  let eng, manager, _, pool = make_pool () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:16);
  let freed = Pool.shrink pool (mib 5) in
  Alcotest.(check int) "freed rounded to granules" (mib 5) freed;
  Alcotest.(check int) "resident" (mib 11) (Pool.resident_bytes pool);
  Alcotest.(check int) "clerk follows" (mib 11) (Dbmem.Manager.used manager);
  let freed2 = Pool.shrink_to pool (mib 4) in
  Alcotest.(check int) "shrink_to" (mib 7) freed2;
  Alcotest.(check int) "resident at target" (mib 4) (Pool.resident_bytes pool)

let test_pool_shrink_empty () =
  let _, _, _, pool = make_pool () in
  Alcotest.(check int) "nothing to free" 0 (Pool.shrink pool (mib 1))

let test_pool_table_interning () =
  let _, _, _, pool = make_pool () in
  let a = Pool.table_id pool "alpha" in
  let b = Pool.table_id pool "beta" in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "stable" a (Pool.table_id pool "alpha")

let test_pool_pages_distinct_per_table () =
  let eng, _, _, pool = make_pool () in
  let a = Pool.table_id pool "a" and b = Pool.table_id pool "b" in
  in_process eng (fun () ->
      Pool.read pool ~table:a ~page:0;
      Pool.read pool ~table:b ~page:0);
  Alcotest.(check int) "two distinct pages" 2 (Pool.resident_pages pool);
  Alcotest.(check int) "both misses" 2 (Pool.misses pool)

let test_pool_read_range_batches_io () =
  let eng, _, disk, pool = make_pool ~total:(mib 256) () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:100);
  (* 100 misses coalesce into ceil(100/64) = 2 transfers. *)
  Alcotest.(check int) "transfers" 2 (Disk.reads disk);
  Alcotest.(check int) "bytes" (100 * mib 1) (Disk.bytes_read disk)

let test_pool_demand_hint () =
  let eng, _, _, pool = make_pool ~total:(mib 8) () in
  let t = Pool.table_id pool "fact" in
  in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:20);
  (* 20 misses at 1 MiB each + 8 MiB resident. *)
  Alcotest.(check int) "resident + unmet" (mib 28) (Pool.demand_hint pool);
  (* The window resets. *)
  Alcotest.(check int) "window reset" (mib 8) (Pool.demand_hint pool)

let test_pool_read_random_in_bounds () =
  let eng, _, _, pool = make_pool ~total:(mib 256) () in
  let t = Pool.table_id pool "fact" in
  let rng = Sim.Rng.create 3 in
  in_process eng (fun () ->
      Pool.read_random pool ~table:t ~pages:50 ~of_pages:10 ~rng);
  (* Only 10 distinct pages exist; residency cannot exceed them. *)
  Alcotest.(check bool) "bounded residency" true (Pool.resident_pages pool <= 10);
  Alcotest.(check int) "50 accesses" 50 (Pool.hits pool + Pool.misses pool)

let test_pool_lru2_protects_hot_set () =
  (* A hot set re-read between scan bursts survives with LRU-2 but not
     with LRU when each burst alone overflows the pool. *)
  let survived policy =
    let eng, _, _, pool = make_pool ~total:(mib 6) ~policy () in
    let hot = Pool.table_id pool "hot" and scan = Pool.table_id pool "scan" in
    Sim.Engine.spawn eng (fun () ->
        (* Establish the hot set with two rounds of touches. *)
        for round = 1 to 2 do
          ignore round;
          Pool.read_range pool ~table:hot ~first:0 ~count:4
        done;
        (* One-touch scan bursts bigger than the pool, interleaved with
           hot re-reads. *)
        for chunk = 0 to 9 do
          Pool.read_range pool ~table:scan ~first:(chunk * 8) ~count:8;
          Pool.read_range pool ~table:hot ~first:0 ~count:4
        done);
    Sim.Engine.run_all eng;
    Pool.hit_rate pool
  in
  let lru2 = survived Policy.Lru2 and lru = survived Policy.Lru in
  Alcotest.(check bool)
    (Printf.sprintf "lru2 hit rate (%.2f) beats lru (%.2f) under scan flood" lru2 lru)
    true (lru2 > lru)

let test_pool_hit_rate_fresh () =
  (* Zero accesses reads as 0., not 0/0 = nan. *)
  let _, _, _, pool = make_pool () in
  Alcotest.(check (float 1e-9)) "fresh" 0. (Pool.hit_rate pool)

let test_pool_read_rejects_out_of_range () =
  let _, _, _, pool = make_pool () in
  let rejected ~table ~page =
    try
      Pool.read pool ~table ~page;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative page" true (rejected ~table:0 ~page:(-1));
  Alcotest.(check bool) "page 2^40" true (rejected ~table:0 ~page:(1 lsl 40));
  Alcotest.(check bool) "table 2^22" true (rejected ~table:(1 lsl 22) ~page:0);
  Alcotest.(check int) "nothing admitted" 0 (Pool.resident_pages pool);
  Alcotest.(check int) "nothing counted" 0 (Pool.hits pool + Pool.misses pool)

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The hot path is flat: 10 000 policy touches and 10 000 pool hits move
   the minor-heap counter no more than an empty window does. *)
let test_touch_and_hit_allocate_nothing () =
  List.iter
    (fun kind ->
      let p = Policy.create kind in
      for i = 0 to 3 do
        Policy.insert p (page i)
      done;
      let eng, _, _, pool = make_pool ~policy:kind () in
      let t = Pool.table_id pool "fact" in
      in_process eng (fun () -> Pool.read_range pool ~table:t ~first:0 ~count:4);
      let touches () =
        for i = 0 to 9_999 do
          ignore (Policy.touch p (page (i land 3)))
        done
      in
      let hits () =
        for i = 0 to 9_999 do
          Pool.read pool ~table:t ~page:(i land 3)
        done
      in
      let empty = minor_words_during ignore in
      Alcotest.(check (float 0.)) "touches" empty (minor_words_during touches);
      Alcotest.(check (float 0.)) "pool hits" empty (minor_words_during hits);
      Alcotest.(check int) "all hits" 10_000 (Pool.hits pool))
    kinds

(* The miss path at a full pool is an eviction and an insert. Past the
   initial 64 slots, 10 000 rounds of both allocate nothing; the touch of
   every other new page keeps LRU-2 alternating between the ring and the
   heap for its victim, and CLOCK sweeping reference bits. *)
let test_evict_and_insert_allocate_nothing () =
  List.iter
    (fun kind ->
      let p = Policy.create kind in
      for i = 0 to 99 do
        Policy.insert p (page i)
      done;
      let churn () =
        for i = 100 to 10_099 do
          ignore (Policy.evict p);
          Policy.insert p (page i);
          if i land 1 = 0 then ignore (Policy.touch p (page i))
        done
      in
      let empty = minor_words_during ignore in
      Alcotest.(check (float 0.)) "evict + insert" empty (minor_words_during churn);
      Alcotest.(check int) "still 100 resident" 100 (Policy.size p))
    kinds

(* Where pool and manager meet: random reads over three tables, shrinks,
   and a second clerk whose allocations reclaim from the pool through the
   manager's donor walk. After every step the pool's residency matches
   its clerk, the manager stays within its budget and every access is
   counted once. *)
type pool_step =
  | Range of int * int * int
  | Random of int * int * int
  | Shrink of int
  | Shrink_to of int
  | Other_alloc of int
  | Other_free of int

let show_pool_step = function
  | Range (t, f, c) -> Printf.sprintf "range(%d,%d,%d)" t f c
  | Random (t, n, o) -> Printf.sprintf "random(%d,%d,%d)" t n o
  | Shrink n -> Printf.sprintf "shrink %d" n
  | Shrink_to n -> Printf.sprintf "shrink_to %d" n
  | Other_alloc n -> Printf.sprintf "other_alloc %d" n
  | Other_free n -> Printf.sprintf "other_free %d" n

let gen_pool_steps =
  let open QCheck.Gen in
  list_size (int_range 1 40)
    (frequency
       [
         (4, map3 (fun t f c -> Range (t, f, c)) (int_range 0 2) (int_range 0 30) (int_range 0 12));
         (3, map3 (fun t n o -> Random (t, n, o)) (int_range 0 2) (int_range 0 12) (int_range 0 40));
         (1, map (fun n -> Shrink n) (int_range 0 8));
         (1, map (fun n -> Shrink_to n) (int_range 0 16));
         (2, map (fun n -> Other_alloc n) (int_range 1 12));
         (1, map (fun n -> Other_free n) (int_range 1 12));
       ])

let pool_manager_consistent kind steps =
  let eng, manager, _, pool = make_pool ~total:(mib 16) ~policy:kind () in
  let clerk = Option.get (Dbmem.Manager.find_clerk manager "bufpool") in
  Dbmem.Manager.register_donor manager ~clerk ~priority:0 ~shrink:(Pool.shrink pool);
  let other = Dbmem.Manager.create_clerk manager "other" in
  let tables = Array.map (Pool.table_id pool) [| "a"; "b"; "c" |] in
  let rng = Sim.Rng.create 9 in
  let accesses = ref 0 and held = ref 0 and ok = ref true in
  let step = function
    | Range (t, first, count) ->
        Pool.read_range pool ~table:tables.(t) ~first ~count;
        accesses := !accesses + count
    | Random (t, pages, of_pages) ->
        Pool.read_random pool ~table:tables.(t) ~pages ~of_pages ~rng;
        accesses := !accesses + pages
    | Shrink n -> ignore (Pool.shrink pool (n * mib 1))
    | Shrink_to n -> ignore (Pool.shrink_to pool (n * mib 1))
    | Other_alloc n -> (
        match Dbmem.Manager.alloc other (n * mib 1) with
        | Ok () -> held := !held + n
        | Error `Out_of_memory -> ())
    | Other_free n ->
        let n = min n !held in
        Dbmem.Manager.free other (n * mib 1);
        held := !held - n
  in
  Sim.Engine.spawn eng (fun () ->
      List.iter
        (fun s ->
          step s;
          ok :=
            !ok
            && Pool.resident_pages pool * Pool.page_bytes pool
               = Dbmem.Manager.clerk_used clerk
            && Dbmem.Manager.used manager <= Dbmem.Manager.total manager
            && Pool.hits pool + Pool.misses pool = !accesses)
        steps);
  Sim.Engine.run_all eng;
  !ok

let prop_pool_manager (name, kind) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s pool stays consistent with its clerk" name)
    ~count:200
    (QCheck.make
       ~print:(fun steps -> String.concat " " (List.map show_pool_step steps))
       gen_pool_steps)
    (pool_manager_consistent kind)

let pool_manager_props =
  List.map prop_pool_manager
    [ ("lru", Policy.Lru); ("clock", Policy.Clock); ("lru-2", Policy.Lru2) ]

let suite =
  [
    ("disk service time", `Quick, test_disk_service_time);
    ("disk read blocks", `Quick, test_disk_read_blocks_for_duration);
    ("disk concurrent reads queue", `Quick, test_disk_concurrent_reads_queue);
    ("disk zero bytes", `Quick, test_disk_zero_bytes_instant);
    ("disk write accounting", `Quick, test_disk_write_accounting);
    ("lru evicts oldest", `Quick, test_lru_evicts_oldest);
    ("clock second chance", `Quick, test_clock_second_chance);
    ("lru2 scan resistance", `Quick, test_lru2_scan_resistance);
    ("lru2 once-touched FIFO before heap", `Quick, test_lru2_fifo_before_heap);
    ("lru2 second touch leaves the FIFO", `Quick, test_lru2_second_touch_leaves_fifo);
    ("lru2 heap in (t2, t1) order", `Quick, test_lru2_heap_order);
    ("lru2 insert after the ring drains", `Quick, test_lru2_insert_after_drain);
    ("policy mem/size", `Quick, test_policy_mem_and_size);
    ("policy insert resident rejected", `Quick, test_policy_insert_resident_rejected);
    ("touch and hit allocate nothing", `Quick, test_touch_and_hit_allocate_nothing);
    ("evict and insert allocate nothing", `Quick, test_evict_and_insert_allocate_nothing);
    ("pool hit rate fresh", `Quick, test_pool_hit_rate_fresh);
    ("pool hit/miss accounting", `Quick, test_pool_hit_miss_accounting);
    ("pool miss costs io", `Quick, test_pool_miss_costs_io_hit_does_not);
    ("pool resident = clerk", `Quick, test_pool_resident_equals_clerk);
    ("pool recycles when full", `Quick, test_pool_recycles_when_memory_full);
    ("pool shrink", `Quick, test_pool_shrink);
    ("pool shrink empty", `Quick, test_pool_shrink_empty);
    ("pool table interning", `Quick, test_pool_table_interning);
    ("pool pages per table", `Quick, test_pool_pages_distinct_per_table);
    ("pool read_range batches io", `Quick, test_pool_read_range_batches_io);
    ("pool demand hint", `Quick, test_pool_demand_hint);
    ("pool read_random bounds", `Quick, test_pool_read_random_in_bounds);
    ("pool lru2 protects hot set", `Quick, test_pool_lru2_protects_hot_set);
    ("pool read rejects out of range", `Quick, test_pool_read_rejects_out_of_range);
    QCheck_alcotest.to_alcotest prop_policy_complete_eviction;
  ]
  @ List.map QCheck_alcotest.to_alcotest (oracle_props @ pool_manager_props)
