(* Tests for the discrete-event simulation kernel. *)

open Sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare () in
  List.iter (Heap.add h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~cmp:compare () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h);
  Alcotest.(check (option int)) "peek" None (Heap.peek h)

let test_heap_peek_does_not_remove () =
  let h = Heap.create ~cmp:compare () in
  Heap.add h 7;
  Alcotest.(check (option int)) "peek" (Some 7) (Heap.peek h);
  Alcotest.(check int) "size" 1 (Heap.size h)

let test_heap_capacity () =
  (* A capacity hint changes only when the array grows, never what comes
     out; zero capacity and a negative one are the edge cases. *)
  let h = Heap.create ~capacity:4 ~cmp:compare () in
  List.iter (Heap.add h) [ 9; 2; 7; 1; 8; 3 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted beyond the hint" [ 1; 2; 3; 7; 8; 9 ] (drain []);
  let h0 = Heap.create ~capacity:0 ~cmp:compare () in
  Heap.add h0 5;
  Alcotest.(check (option int)) "zero hint works" (Some 5) (Heap.pop h0);
  Alcotest.(check bool) "negative capacity rejected" true
    (try
       ignore (Heap.create ~capacity:(-1) ~cmp:compare ());
       false
     with Invalid_argument _ -> true)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare () in
      List.iter (Heap.add h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

let test_heap_exn_variants () =
  (* The non-allocating forms agree with the option ones and reject an
     empty heap instead of returning a sentinel. *)
  let h = Heap.create ~cmp:compare () in
  Alcotest.(check bool) "peek_exn empty raises" true
    (try
       ignore (Heap.peek_exn h);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "pop_exn empty raises" true
    (try
       ignore (Heap.pop_exn h);
       false
     with Invalid_argument _ -> true);
  List.iter (Heap.add h) [ 4; 2; 9; 2 ];
  Alcotest.(check int) "peek_exn = min" 2 (Heap.peek_exn h);
  Alcotest.(check int) "peek_exn leaves size" 4 (Heap.size h);
  let rec drain acc =
    if Heap.is_empty h then List.rev acc else drain (Heap.pop_exn h :: acc)
  in
  Alcotest.(check (list int)) "pop_exn drains sorted" [ 2; 2; 4; 9 ] (drain []);
  Alcotest.(check bool) "empty again" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_split_independent () =
  let parent = Rng.create 3 in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.int child 1000) in
  let ys = List.init 50 (fun _ -> Rng.int parent 1000) in
  Alcotest.(check bool) "child differs from parent" true (xs <> ys)

let test_rng_int_range () =
  let r = Rng.create 11 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_range () =
  let r = Rng.create 13 in
  for _ = 1 to 10_000 do
    let x = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (x >= 0. && x < 3.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 17 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 4" true (Float.abs (mean -. 4.0) < 0.1)

let test_rng_weighted_choice () =
  let r = Rng.create 29 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 30_000 do
    let v = Rng.weighted_choice r [ (1., "a"); (2., "b"); (7., "c") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. 30_000. in
  Alcotest.(check bool) "a ~ 10%" true (Float.abs (get "a" -. 0.1) < 0.02);
  Alcotest.(check bool) "c ~ 70%" true (Float.abs (get "c" -. 0.7) < 0.02)

let test_rng_sample_distinct () =
  let r = Rng.create 31 in
  let a = Array.init 20 (fun i -> i) in
  let s = Rng.sample r a 10 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let distinct = Array.for_all2 (fun _ _ -> true) s s in
  ignore distinct;
  for i = 1 to Array.length sorted - 1 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_online_stats () =
  let s = Stats.Online.create () in
  List.iter (Stats.Online.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5.0 (Stats.Online.mean s);
  Alcotest.(check int) "count" 8 (Stats.Online.count s);
  check_float "min" 2. (Stats.Online.min s);
  check_float "max" 9. (Stats.Online.max s);
  (* Sample variance of the classic dataset: population var is 4, sample
     var is 32/7. *)
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Stats.Online.variance s)

let test_percentile () =
  let values = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  check_float "median" 5.5 (Stats.percentile values 0.5);
  check_float "p0" 1.0 (Stats.percentile values 0.0);
  check_float "p100" 10.0 (Stats.percentile values 1.0)

(* ------------------------------------------------------------------ *)
(* Series *)

let test_series_bucket_sum () =
  let s = Series.create () in
  Series.add s ~time:0.5 1.;
  Series.add s ~time:0.9 1.;
  Series.add s ~time:1.5 1.;
  Series.add s ~time:3.2 1.;
  let buckets = Series.bucket_sum s ~start:0. ~stop:4. ~width:1. in
  Alcotest.(check int) "4 slices" 4 (Array.length buckets);
  check_float "slice0" 2. (snd buckets.(0));
  check_float "slice1" 1. (snd buckets.(1));
  check_float "slice2" 0. (snd buckets.(2));
  check_float "slice3" 1. (snd buckets.(3))

let test_series_monotonic_times () =
  let s = Series.create () in
  Series.add s ~time:1.0 5.;
  Alcotest.check_raises "backwards time" (Invalid_argument "Series.add: time went backwards")
    (fun () -> Series.add s ~time:0.5 1.)

let test_series_values_between () =
  let s = Series.create () in
  for i = 0 to 9 do
    Series.add s ~time:(float_of_int i) (float_of_int i)
  done;
  let vs = Series.values_between s ~start:3. ~stop:6. in
  Alcotest.(check (array (float 1e-9))) "window" [| 3.; 4.; 5. |] vs

let test_series_bucket_mean () =
  let s = Series.create () in
  Series.add s ~time:0.1 10.;
  Series.add s ~time:0.2 20.;
  Series.add s ~time:1.5 5.;
  let buckets = Series.bucket_mean s ~start:0. ~stop:2. ~width:1. in
  check_float "mean slice0" 15. (snd buckets.(0));
  check_float "mean slice1" 5. (snd buckets.(1))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_sleep_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng ~name:"a" (fun () ->
      Engine.sleep 2.0;
      log := ("a", Engine.now eng) :: !log);
  Engine.spawn eng ~name:"b" (fun () ->
      Engine.sleep 1.0;
      log := ("b", Engine.now eng) :: !log);
  Engine.run_all eng;
  Alcotest.(check (list (pair string (float 1e-9))))
    "b fires before a"
    [ ("b", 1.0); ("a", 2.0) ]
    (List.rev !log)

let test_engine_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run_all eng;
  Alcotest.(check (list int)) "schedule order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run_all eng;
  Alcotest.(check bool) "not fired" false !fired

let test_engine_run_until () =
  let eng = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule eng ~delay:5.0 (fun () -> fired := 5 :: !fired));
  Engine.run eng ~until:3.0;
  Alcotest.(check (list int)) "only first" [ 1 ] !fired;
  Engine.run eng ~until:10.0;
  Alcotest.(check (list int)) "then second" [ 5; 1 ] !fired

let test_engine_nested_spawn () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.sleep 1.0;
      Engine.spawn eng ~name:"child" (fun () ->
          Engine.sleep 1.0;
          log := ("child", Engine.now eng) :: !log);
      Engine.sleep 0.5;
      log := ("parent", Engine.now eng) :: !log);
  Engine.run_all eng;
  Alcotest.(check (list (pair string (float 1e-9))))
    "interleaving"
    [ ("parent", 1.5); ("child", 2.0) ]
    (List.rev !log)

let test_engine_suspend_resume () =
  let eng = Engine.create () in
  let waker = ref None in
  let result = ref 0 in
  Engine.spawn eng (fun () ->
      let v = Engine.suspend (fun wake -> waker := Some wake) in
      result := v);
  Engine.run_all eng;
  Alcotest.(check int) "still suspended" 0 !result;
  (match !waker with Some w -> w 42 | None -> Alcotest.fail "no waker");
  Engine.run_all eng;
  Alcotest.(check int) "resumed with value" 42 !result

let test_engine_double_wake_ignored () =
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.spawn eng (fun () ->
      let _ = Engine.suspend (fun wake -> wake 1; wake 2) in
      incr count);
  Engine.run_all eng;
  Alcotest.(check int) "resumed once" 1 !count

(* [park]'s resume continues the process inside the resuming event: the
   callback sees the process's effects as soon as [resume] returns, and
   the run costs the spawn and the callback. [suspend]'s wake schedules
   a third event and the process has not run when [wake] returns. *)
let test_engine_park_resumes_inline () =
  let run block =
    let eng = Engine.create () in
    let resume = ref ignore and got = ref 0 and at = ref (-1.) in
    let seen = ref 0 in
    Engine.spawn eng (fun () ->
        got := block (fun r -> resume := r);
        at := Engine.now eng);
    ignore
      (Engine.schedule eng ~delay:2.0 (fun () ->
           !resume 7;
           seen := !got));
    Engine.run_all eng;
    (!got, !at, !seen, Engine.events_executed eng)
  in
  let got, at, seen, events = run Engine.park in
  Alcotest.(check int) "park: value" 7 got;
  check_float "park: resumed at the callback's time" 2.0 at;
  Alcotest.(check int) "park: ran inside the callback" 7 seen;
  Alcotest.(check int) "park: spawn + callback" 2 events;
  let got, at, seen, events = run Engine.suspend in
  Alcotest.(check int) "suspend: value" 7 got;
  check_float "suspend: same instant" 2.0 at;
  Alcotest.(check int) "suspend: not yet run" 0 seen;
  Alcotest.(check int) "suspend: spawn + callback + wake" 3 events

(* The ring keeps FIFO order across wrap-around and growth. *)
let test_fifo_order () =
  let q = Fifo.create ~dummy:0 () in
  let out = ref [] in
  let pop () = out := Fifo.pop q :: !out in
  for i = 1 to 10 do
    Fifo.push q i
  done;
  for _ = 1 to 7 do
    pop ()
  done;
  (* The head sits mid-ring: these pushes wrap, then grow it twice. *)
  for i = 11 to 60 do
    Fifo.push q i
  done;
  Alcotest.(check int) "length" 53 (Fifo.length q);
  while not (Fifo.is_empty q) do
    pop ()
  done;
  Alcotest.(check (list int)) "fifo" (List.init 60 (fun i -> i + 1)) (List.rev !out);
  Alcotest.check_raises "pop empty" (Invalid_argument "Fifo.pop: empty")
    (fun () -> ignore (Fifo.pop q))

(* Push a fresh 200-word array, still young. Not inlined, so no stack
   slot of the caller holds it. *)
let[@inline never] push_young q = Fifo.push q (Sys.opaque_identity (Array.make 200 0))

(* A popped value is unreachable from the ring. Behind an old element,
   a linked queue links the young one from an old cell; the minor
   collector keeps that field as a root after both are popped and
   promotes the young value with everything it holds. The ring resets
   the slot, so the next minor collection promotes none of it. A weak
   pointer would keep its young value alive through a minor collection,
   so retention is checked apart, across a major one. *)
let test_fifo_pop_retains_nothing () =
  let q = Fifo.create ~dummy:[||] () in
  let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
  Fifo.push q [| 1 |];
  Gc.full_major ();
  push_young q;
  ignore (Sys.opaque_identity (Fifo.pop q));
  ignore (Sys.opaque_identity (Fifo.pop q));
  let p0 = promoted () in
  Gc.minor ();
  Alcotest.(check bool) "the popped array is not promoted" true
    (promoted () -. p0 < 200.);
  let w = Weak.create 1 in
  let x = Sys.opaque_identity (Array.make 200 0) in
  Weak.set w 0 (Some x);
  Fifo.push q x;
  ignore (Sys.opaque_identity (Fifo.pop q));
  Gc.full_major ();
  Alcotest.(check bool) "not retained" false (Weak.check w 0)

(* [run_all eng] must end with [Process_failed]; returns its payload. *)
let process_failure eng =
  match Engine.run_all eng with
  | () -> Alcotest.fail "expected the run to raise Process_failed"
  | exception Engine.Process_failed { name; time; exn } -> (name, time, exn)

(* A failed process ends the run at its own event: later events do not
   fire, the clock stays put, and the engine keeps that one failure. *)
let test_engine_failure_recorded () =
  let eng = Engine.create () in
  let later = ref false in
  Engine.spawn eng ~name:"bad" (fun () ->
      Engine.sleep 1.5;
      failwith "boom");
  Engine.spawn eng ~delay:2.0 (fun () -> later := true);
  let name, time, exn = process_failure eng in
  Alcotest.(check string) "process" "bad" name;
  Alcotest.(check (float 0.)) "time" 1.5 time;
  Alcotest.(check bool) "inner" true (exn = Failure "boom");
  Alcotest.(check bool) "run stopped" false !later;
  Alcotest.(check (float 0.)) "clock" 1.5 (Engine.now eng);
  Alcotest.(check bool) "failures" true
    (Engine.failures eng = [ ("bad", Failure "boom", 1.5) ]);
  Alcotest.(check string) "printed"
    {|sim process "bad" failed at t=1.500: Failure("boom")|}
    (Printexc.to_string (Engine.Process_failed { name; time; exn }))

(* A raw callback is not a process: its exception leaves [run] as is. *)
let test_engine_callback_raises () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> failwith "tick"));
  Alcotest.check_raises "unwrapped" (Failure "tick") (fun () ->
      Engine.run_all eng)

let test_engine_every () =
  let eng = Engine.create () in
  let times = ref [] in
  let h = Engine.every eng ~interval:1.0 (fun () -> times := Engine.now eng :: !times) in
  ignore (Engine.schedule eng ~delay:3.5 (fun () -> Engine.cancel h));
  Engine.run eng ~until:10.0;
  Alcotest.(check (list (float 1e-9))) "ticks" [ 1.; 2.; 3. ] (List.rev !times)

let test_engine_negative_sleep () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"neg" ~delay:3.0 (fun () -> Engine.sleep (-1.0));
  let name, time, exn = process_failure eng in
  Alcotest.(check string) "process" "neg" name;
  Alcotest.(check (float 0.)) "time" 3.0 time;
  Alcotest.(check bool) "inner" true
    (exn = Invalid_argument "Engine.sleep: negative delay")

let test_engine_self_name () =
  let eng = Engine.create () in
  let seen = ref "" in
  Engine.spawn eng ~name:"proc-7" (fun () ->
      Engine.sleep 1.0;
      seen := Engine.self_name ());
  Engine.run_all eng;
  Alcotest.(check string) "name survives resume" "proc-7" !seen;
  Alcotest.(check string) "outside process" "" (Engine.self_name ())

let prop_engine_event_times_nondecreasing =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:100
    QCheck.(list (float_bound_inclusive 100.))
    (fun delays ->
      let eng = Engine.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          let d = Float.abs d in
          ignore (Engine.schedule eng ~delay:d (fun () -> times := Engine.now eng :: !times)))
        delays;
      Engine.run_all eng;
      let ts = List.rev !times in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing ts && List.length ts = List.length delays)

(* ------------------------------------------------------------------ *)
(* Resource.Sem *)

let run_with_sem ~capacity f =
  let eng = Engine.create () in
  let sem = Resource.Sem.create eng ~capacity () in
  f eng sem;
  Engine.run_all eng;
  (eng, sem)

let test_sem_fast_path () =
  let _, sem =
    run_with_sem ~capacity:2 (fun eng sem ->
        Engine.spawn eng (fun () ->
            (match Resource.Sem.acquire sem ~n:1 () with
            | Resource.Acquired -> ()
            | Resource.Timed_out -> Alcotest.fail "should not time out");
            Alcotest.(check int) "in use" 1 (Resource.Sem.in_use sem)))
  in
  Alcotest.(check int) "still held" 1 (Resource.Sem.in_use sem)

let test_sem_blocking_and_release () =
  let order = ref [] in
  let _ =
    run_with_sem ~capacity:1 (fun eng sem ->
        Engine.spawn eng ~name:"first" (fun () ->
            ignore (Resource.Sem.acquire sem ~n:1 ());
            order := "first-acq" :: !order;
            Engine.sleep 5.0;
            Resource.Sem.release sem ~n:1;
            order := "first-rel" :: !order);
        Engine.spawn eng ~name:"second" ~delay:1.0 (fun () ->
            ignore (Resource.Sem.acquire sem ~n:1 ());
            order := ("second-acq@" ^ string_of_float (Engine.now eng)) :: !order))
  in
  Alcotest.(check (list string))
    "second waits for release"
    [ "first-acq"; "first-rel"; "second-acq@5." ]
    (List.rev !order)

let test_sem_timeout () =
  let result = ref None in
  let _ =
    run_with_sem ~capacity:1 (fun eng sem ->
        Engine.spawn eng (fun () ->
            ignore (Resource.Sem.acquire sem ~n:1 ());
            Engine.sleep 100.0;
            Resource.Sem.release sem ~n:1);
        Engine.spawn eng ~delay:1.0 (fun () ->
            result := Some (Resource.Sem.acquire sem ~timeout:3.0 ~n:1 ())))
  in
  (match !result with
  | Some Resource.Timed_out -> ()
  | _ -> Alcotest.fail "expected timeout")

let test_sem_timeout_counts () =
  let _, sem =
    run_with_sem ~capacity:1 (fun eng sem ->
        Engine.spawn eng (fun () ->
            ignore (Resource.Sem.acquire sem ~n:1 ());
            Engine.sleep 100.0;
            Resource.Sem.release sem ~n:1);
        for _ = 1 to 3 do
          Engine.spawn eng ~delay:1.0 (fun () ->
              ignore (Resource.Sem.acquire sem ~timeout:2.0 ~n:1 ()))
        done)
  in
  Alcotest.(check int) "timeouts" 3 (Resource.Sem.timeouts sem)

let test_sem_priority_order () =
  let order = ref [] in
  let _ =
    run_with_sem ~capacity:1 (fun eng sem ->
        Engine.spawn eng (fun () ->
            ignore (Resource.Sem.acquire sem ~n:1 ());
            Engine.sleep 10.0;
            Resource.Sem.release sem ~n:1);
        (* Low-priority waiter arrives first, high-priority second: the
           high-priority one must be served first. *)
        Engine.spawn eng ~name:"low" ~delay:1.0 (fun () ->
            ignore (Resource.Sem.acquire sem ~priority:5 ~n:1 ());
            order := "low" :: !order;
            Resource.Sem.release sem ~n:1);
        Engine.spawn eng ~name:"high" ~delay:2.0 (fun () ->
            ignore (Resource.Sem.acquire sem ~priority:1 ~n:1 ());
            order := "high" :: !order;
            Resource.Sem.release sem ~n:1))
  in
  Alcotest.(check (list string)) "priority order" [ "high"; "low" ] (List.rev !order)

let test_sem_no_overtaking () =
  (* A big request at the head must not be starved by small ones behind. *)
  let order = ref [] in
  let _ =
    run_with_sem ~capacity:4 (fun eng sem ->
        Engine.spawn eng (fun () ->
            ignore (Resource.Sem.acquire sem ~n:3 ());
            Engine.sleep 10.0;
            Resource.Sem.release sem ~n:3);
        Engine.spawn eng ~name:"big" ~delay:1.0 (fun () ->
            ignore (Resource.Sem.acquire sem ~n:4 ());
            order := "big" :: !order;
            Resource.Sem.release sem ~n:4);
        (* This small request fits in the free capacity (1 unit) but must
           wait behind "big". *)
        Engine.spawn eng ~name:"small" ~delay:2.0 (fun () ->
            ignore (Resource.Sem.acquire sem ~n:1 ());
            order := "small" :: !order;
            Resource.Sem.release sem ~n:1))
  in
  Alcotest.(check (list string)) "no overtaking" [ "big"; "small" ] (List.rev !order)

let prop_sem_never_exceeds_capacity =
  QCheck.Test.make ~name:"semaphore never over-grants" ~count:60
    QCheck.(pair (int_range 1 5) (list (pair (int_range 1 3) (int_range 0 20))))
    (fun (capacity, jobs) ->
      let eng = Engine.create () in
      let sem = Resource.Sem.create eng ~capacity () in
      let max_seen = ref 0 in
      let violations = ref 0 in
      List.iter
        (fun (n, delay) ->
          let n = min n capacity in
          Engine.spawn eng ~delay:(float_of_int delay) (fun () ->
              match Resource.Sem.acquire sem ~timeout:50. ~n () with
              | Resource.Acquired ->
                  let u = Resource.Sem.in_use sem in
                  if u > capacity then incr violations;
                  if u > !max_seen then max_seen := u;
                  Engine.sleep 2.0;
                  Resource.Sem.release sem ~n
              | Resource.Timed_out -> ()))
        jobs;
      Engine.run_all eng;
      !violations = 0 && Resource.Sem.in_use sem = 0)

(* ------------------------------------------------------------------ *)
(* Resource.Waitq *)

let test_waitq_timeout () =
  let eng = Engine.create () in
  let q = Resource.Waitq.create eng () in
  let result = ref None in
  Engine.spawn eng (fun () -> result := Some (Resource.Waitq.wait q ~timeout:2.0 ()));
  Engine.run_all eng;
  (match !result with
  | Some Resource.Timed_out -> ()
  | _ -> Alcotest.fail "expected timeout");
  Alcotest.(check int) "queue empty" 0 (Resource.Waitq.queued q)

let test_waitq_broadcast () =
  let eng = Engine.create () in
  let q = Resource.Waitq.create eng () in
  let woken = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn eng (fun () ->
        ignore (Resource.Waitq.wait q ());
        incr woken)
  done;
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Resource.Waitq.broadcast q));
  Engine.run_all eng;
  Alcotest.(check int) "all woken" 5 !woken

let test_engine_cancel_after_fire_noop () =
  let eng = Engine.create () in
  let count = ref 0 in
  let h = Engine.schedule eng ~delay:1.0 (fun () -> incr count) in
  Engine.run_all eng;
  Engine.cancel h;
  Alcotest.(check int) "fired once" 1 !count;
  Alcotest.(check bool) "cancelled flag set" true (Engine.cancelled h)

let test_engine_schedule_negative_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule eng ~delay:(-1.0) (fun () -> ())))

let test_engine_every_custom_start () =
  let eng = Engine.create () in
  let times = ref [] in
  ignore (Engine.every eng ~start:5.0 ~interval:2.0 (fun () ->
      times := Engine.now eng :: !times));
  Engine.run eng ~until:10.0;
  Alcotest.(check (list (float 1e-9))) "start then interval" [ 5.; 7.; 9. ]
    (List.rev !times)

let test_sem_release_overflow_rejected () =
  let eng = Engine.create () in
  let sem = Resource.Sem.create eng ~capacity:2 () in
  Engine.spawn eng ~name:"over" (fun () ->
      ignore (Resource.Sem.acquire sem ~n:1 ());
      Engine.sleep 0.5;
      Resource.Sem.release sem ~n:2);
  let name, time, exn = process_failure eng in
  Alcotest.(check string) "process" "over" name;
  Alcotest.(check (float 0.)) "time" 0.5 time;
  Alcotest.(check bool) "inner" true
    (exn = Invalid_argument "Sem.release: more than in use");
  Alcotest.(check int) "in use unchanged" 1 (Resource.Sem.in_use sem)

let test_sem_zero_units () =
  let eng = Engine.create () in
  let sem = Resource.Sem.create eng ~capacity:0 () in
  Engine.spawn eng (fun () ->
      match Resource.Sem.acquire sem ~n:0 () with
      | Resource.Acquired -> ()
      | Resource.Timed_out -> Alcotest.fail "zero units must not block");
  Engine.run_all eng

let test_sem_priority_tie_is_fifo () =
  let eng = Engine.create () in
  let sem = Resource.Sem.create eng ~capacity:1 () in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      ignore (Resource.Sem.acquire sem ~n:1 ());
      Engine.sleep 10.;
      Resource.Sem.release sem ~n:1);
  List.iter
    (fun (name, delay) ->
      Engine.spawn eng ~delay (fun () ->
          ignore (Resource.Sem.acquire sem ~priority:3 ~n:1 ());
          order := name :: !order;
          Resource.Sem.release sem ~n:1))
    [ ("first", 1.0); ("second", 2.0); ("third", 3.0) ];
  Engine.run_all eng;
  Alcotest.(check (list string)) "fifo among equal priorities"
    [ "first"; "second"; "third" ] (List.rev !order)

let test_rng_copy_same_stream () =
  let a = Rng.create 99 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "copy continues identically" xs ys

let test_engine_stress_many_events () =
  (* 200k events execute in order and in reasonable wall time. *)
  let eng = Engine.create () in
  let rng = Rng.create 424242 in
  let last = ref neg_infinity in
  let count = ref 0 in
  for _ = 1 to 200_000 do
    ignore
      (Engine.schedule eng ~delay:(Rng.float rng 1000.) (fun () ->
           let now = Engine.now eng in
           if now < !last then Alcotest.fail "time went backwards";
           last := now;
           incr count))
  done;
  Engine.run_all eng;
  Alcotest.(check int) "all executed" 200_000 !count

let test_engine_deterministic_processes () =
  (* Two engines with the same seed running a random process soup produce
     identical traces. *)
  let trace seed =
    let eng = Engine.create ~seed () in
    let rng = Rng.split (Engine.rng eng) in
    let sem = Resource.Sem.create eng ~capacity:2 () in
    let log = ref [] in
    for i = 1 to 30 do
      Engine.spawn eng ~name:(string_of_int i) (fun () ->
          Engine.sleep (Rng.float rng 5.);
          match Resource.Sem.acquire sem ~timeout:(Rng.float rng 20.) ~n:1 () with
          | Resource.Acquired ->
              Engine.sleep (Rng.float rng 3.);
              log := (i, Engine.now eng) :: !log;
              Resource.Sem.release sem ~n:1
          | Resource.Timed_out -> log := (-i, Engine.now eng) :: !log)
    done;
    Engine.run_all eng;
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 7 = trace 7);
  Alcotest.(check bool) "different seed, different trace" true (trace 7 <> trace 8)

let suite =
  [
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap empty", `Quick, test_heap_empty);
    ("heap peek", `Quick, test_heap_peek_does_not_remove);
    ("heap capacity hint", `Quick, test_heap_capacity);
    ("heap exn variants", `Quick, test_heap_exn_variants);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_different_seeds);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng exponential mean", `Slow, test_rng_exponential_mean);
    ("rng weighted choice", `Slow, test_rng_weighted_choice);
    ("rng sample distinct", `Quick, test_rng_sample_distinct);
    ("online stats", `Quick, test_online_stats);
    ("percentile", `Quick, test_percentile);
    ("series bucket sum", `Quick, test_series_bucket_sum);
    ("series monotonic times", `Quick, test_series_monotonic_times);
    ("series values between", `Quick, test_series_values_between);
    ("series bucket mean", `Quick, test_series_bucket_mean);
    ("engine sleep ordering", `Quick, test_engine_sleep_ordering);
    ("engine same-time fifo", `Quick, test_engine_same_time_fifo);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine run until", `Quick, test_engine_run_until);
    ("engine nested spawn", `Quick, test_engine_nested_spawn);
    ("engine suspend/resume", `Quick, test_engine_suspend_resume);
    ("engine double wake ignored", `Quick, test_engine_double_wake_ignored);
    ("engine park resumes inline", `Quick, test_engine_park_resumes_inline);
    ("fifo order", `Quick, test_fifo_order);
    ("fifo pop retains nothing", `Quick, test_fifo_pop_retains_nothing);
    ("engine failure recorded", `Quick, test_engine_failure_recorded);
    ("engine callback raises", `Quick, test_engine_callback_raises);
    ("engine every", `Quick, test_engine_every);
    ("engine negative sleep", `Quick, test_engine_negative_sleep);
    ("engine self name", `Quick, test_engine_self_name);
    ("sem fast path", `Quick, test_sem_fast_path);
    ("sem blocking and release", `Quick, test_sem_blocking_and_release);
    ("sem timeout", `Quick, test_sem_timeout);
    ("sem timeout counts", `Quick, test_sem_timeout_counts);
    ("sem priority order", `Quick, test_sem_priority_order);
    ("sem no overtaking", `Quick, test_sem_no_overtaking);
    ("engine cancel after fire", `Quick, test_engine_cancel_after_fire_noop);
    ("engine negative schedule", `Quick, test_engine_schedule_negative_rejected);
    ("engine every custom start", `Quick, test_engine_every_custom_start);
    ("sem release overflow", `Quick, test_sem_release_overflow_rejected);
    ("sem zero units", `Quick, test_sem_zero_units);
    ("sem priority tie fifo", `Quick, test_sem_priority_tie_is_fifo);
    ("rng copy", `Quick, test_rng_copy_same_stream);
    ("engine stress 200k events", `Slow, test_engine_stress_many_events);
    ("engine deterministic processes", `Quick, test_engine_deterministic_processes);
    ("waitq timeout", `Quick, test_waitq_timeout);
    ("waitq broadcast", `Quick, test_waitq_broadcast);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_engine_event_times_nondecreasing;
    QCheck_alcotest.to_alcotest prop_sem_never_exceeds_capacity;
  ]
