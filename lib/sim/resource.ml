type acquire_result = Acquired | Timed_out
type discipline = Fifo | Lifo

module Sem = struct
  type waiter = {
    n : int;
    priority : int;
    order : int;  (* seq under Fifo, -seq under Lifo; fixed at enqueue *)
    enqueued_at : float;
    wake : acquire_result -> unit;
    mutable alive : bool; (* false once granted or timed out *)
    mutable timer : Engine.handle option;
  }

  type t = {
    eng : Engine.t;
    capacity : int;
    mutable in_use : int;
    mutable seq : int;
    mutable disc : discipline;
    waiters : waiter Heap.t;
    mutable queued : int;
    wait_stats : Stats.Online.t;
    mutable timeouts : int;
    mutable grants : int;
  }

  let compare_waiter a b =
    let c = compare a.priority b.priority in
    if c <> 0 then c else compare a.order b.order

  let create eng ~capacity () =
    if capacity < 0 then invalid_arg "Sem.create: negative capacity";
    {
      eng;
      capacity;
      in_use = 0;
      seq = 0;
      disc = Fifo;
      waiters = Heap.create ~cmp:compare_waiter ();
      queued = 0;
      wait_stats = Stats.Online.create ();
      timeouts = 0;
      grants = 0;
    }

  let capacity t = t.capacity
  let in_use t = t.in_use
  let discipline t = t.disc

  (* The flip applies to arrivals from here on: queued waiters keep the
     order key they enqueued under, so the heap invariant never breaks
     and nobody already waiting is reshuffled behind newer arrivals
     retroactively. *)
  let set_discipline t d = t.disc <- d
  let queued t = t.queued
  let wait_stats t = t.wait_stats
  let timeouts t = t.timeouts
  let grants t = t.grants

  let grant t w =
    w.alive <- false;
    (match w.timer with Some h -> Engine.cancel h | None -> ());
    t.queued <- t.queued - 1;
    t.in_use <- t.in_use + w.n;
    t.grants <- t.grants + 1;
    Stats.Online.add t.wait_stats (Engine.now t.eng -. w.enqueued_at);
    w.wake Acquired

  (* Serve the queue head-of-line: pop dead entries, grant while the head
     fits, stop at the first live waiter that does not. *)
  let rec drain t =
    if not (Heap.is_empty t.waiters) then begin
      let w = Heap.peek_exn t.waiters in
      if not w.alive then begin
        ignore (Heap.pop_exn t.waiters);
        drain t
      end
      else if t.capacity - t.in_use >= w.n then begin
        ignore (Heap.pop_exn t.waiters);
        grant t w;
        drain t
      end
    end

  let no_live_waiter t =
    (* Dead entries may linger at the head; drain pops them eagerly, so a
       non-empty heap here means a live waiter exists. *)
    drain t;
    Heap.is_empty t.waiters

  let acquire t ?(priority = 0) ?timeout ~n () =
    if n < 0 then invalid_arg "Sem.acquire: negative n";
    if no_live_waiter t && t.capacity - t.in_use >= n then begin
      t.in_use <- t.in_use + n;
      t.grants <- t.grants + 1;
      Stats.Online.add t.wait_stats 0.;
      Acquired
    end
    else
      Engine.suspend (fun wake ->
          t.seq <- t.seq + 1;
          let order = match t.disc with Fifo -> t.seq | Lifo -> -t.seq in
          let w =
            {
              n;
              priority;
              order;
              enqueued_at = Engine.now t.eng;
              wake;
              alive = true;
              timer = None;
            }
          in
          Heap.add t.waiters w;
          t.queued <- t.queued + 1;
          match timeout with
          | None -> ()
          | Some dt ->
              let h =
                Engine.schedule t.eng ~delay:dt (fun () ->
                    if w.alive then begin
                      w.alive <- false;
                      t.queued <- t.queued - 1;
                      t.timeouts <- t.timeouts + 1;
                      w.wake Timed_out
                    end)
              in
              w.timer <- Some h)

  let release t ~n =
    if n < 0 then invalid_arg "Sem.release: negative n";
    if n > t.in_use then invalid_arg "Sem.release: more than in use";
    t.in_use <- t.in_use - n;
    drain t
end

module Waitq = struct
  type waiter = {
    seq : int;
    wake : acquire_result -> unit;
    mutable alive : bool;
    mutable timer : Engine.handle option;
  }

  type t = {
    eng : Engine.t;
    qname : string;
    mutable seq : int;
    mutable waiters : waiter list; (* newest first *)
    mutable queued : int;
  }

  let create eng ?(name = "waitq") () =
    { eng; qname = name; seq = 0; waiters = []; queued = 0 }

  let name t = t.qname
  let queued t = t.queued

  let wait t ?timeout () =
    Engine.suspend (fun wake ->
        t.seq <- t.seq + 1;
        let w = { seq = t.seq; wake; alive = true; timer = None } in
        t.waiters <- w :: t.waiters;
        t.queued <- t.queued + 1;
        match timeout with
        | None -> ()
        | Some dt ->
            let h =
              Engine.schedule t.eng ~delay:dt (fun () ->
                  if w.alive then begin
                    w.alive <- false;
                    t.queued <- t.queued - 1;
                    w.wake Timed_out
                  end)
            in
            w.timer <- Some h)

  let wake_one w =
    w.alive <- false;
    (match w.timer with Some h -> Engine.cancel h | None -> ());
    w.wake Acquired

  let broadcast t =
    let ws = List.rev t.waiters in
    t.waiters <- [];
    List.iter
      (fun w ->
        if w.alive then begin
          t.queued <- t.queued - 1;
          wake_one w
        end)
      ws
end
