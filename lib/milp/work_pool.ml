(* Bounded work-queue domain pool.

   The generic executor behind the server's concurrent request path,
   the batch scheduler and the decomposition subsystem's parallel
   cluster solves: a FIFO queue with a hard capacity, consumed by a
   fixed set of domains. Capacity is the admission boundary — a non-blocking [submit] that returns [false]
   is the caller's cue to answer "overload" instead of queueing
   unboundedly. Workers never die: [work] exceptions are swallowed (the
   callers' work closures produce their own definitive error results),
   so a poisoned item cannot shrink the pool.

   Lives in lib/milp (below every consumer) so both the service layer
   and lib/decomp can share the same worker-domain machinery without a
   dependency cycle. *)

type 'a t = {
  p_mu : Mutex.t;
  p_nonempty : Condition.t;  (* workers: queue has work, or quitting *)
  p_space : Condition.t;  (* blocking submitters: room freed up *)
  p_queue : 'a Queue.t;
  p_capacity : int;
  mutable p_quit : bool;
  mutable p_active : int;  (* items popped but not yet finished *)
  mutable p_high_water : int;
  mutable p_workers : unit Domain.t list;
}

let create ~jobs ~capacity ~work =
  if jobs < 1 then invalid_arg "Work_pool.create: jobs must be >= 1";
  if capacity < 1 then invalid_arg "Work_pool.create: capacity must be >= 1";
  let t =
    {
      p_mu = Mutex.create ();
      p_nonempty = Condition.create ();
      p_space = Condition.create ();
      p_queue = Queue.create ();
      p_capacity = capacity;
      p_quit = false;
      p_active = 0;
      p_high_water = 0;
      p_workers = [];
    }
  in
  let rec worker () =
    Mutex.lock t.p_mu;
    while Queue.is_empty t.p_queue && not t.p_quit do
      Condition.wait t.p_nonempty t.p_mu
    done;
    if Queue.is_empty t.p_queue then Mutex.unlock t.p_mu (* quitting, queue drained *)
    else begin
      let item = Queue.pop t.p_queue in
      t.p_active <- t.p_active + 1;
      Condition.signal t.p_space;
      Mutex.unlock t.p_mu;
      (* Fault point between dequeue and execution: the item is
         counted active but not yet running — shutdown/drain races. *)
      Faults.yield_point ();
      (try work item with _ -> ());
      Mutex.lock t.p_mu;
      t.p_active <- t.p_active - 1;
      Mutex.unlock t.p_mu;
      worker ()
    end
  in
  t.p_workers <- List.init jobs (fun _ -> Domain.spawn worker);
  t

let submit ?(block = false) t item =
  Faults.yield_point ();
  Mutex.lock t.p_mu;
  if block then
    while Queue.length t.p_queue >= t.p_capacity && not t.p_quit do
      Condition.wait t.p_space t.p_mu
    done;
  let accepted = (not t.p_quit) && Queue.length t.p_queue < t.p_capacity in
  if accepted then begin
    Queue.push item t.p_queue;
    if Queue.length t.p_queue > t.p_high_water then
      t.p_high_water <- Queue.length t.p_queue;
    Condition.signal t.p_nonempty
  end;
  Mutex.unlock t.p_mu;
  accepted

let depth t =
  Mutex.lock t.p_mu;
  let d = Queue.length t.p_queue in
  Mutex.unlock t.p_mu;
  d

let active t =
  Mutex.lock t.p_mu;
  let a = t.p_active in
  Mutex.unlock t.p_mu;
  a

let idle t =
  Mutex.lock t.p_mu;
  let i = Queue.is_empty t.p_queue && t.p_active = 0 in
  Mutex.unlock t.p_mu;
  i

let high_water t =
  Mutex.lock t.p_mu;
  let h = t.p_high_water in
  Mutex.unlock t.p_mu;
  h

let take_queued t =
  Mutex.lock t.p_mu;
  let items = List.of_seq (Queue.to_seq t.p_queue) in
  Queue.clear t.p_queue;
  Condition.broadcast t.p_space;
  Mutex.unlock t.p_mu;
  items

let shutdown t =
  Mutex.lock t.p_mu;
  t.p_quit <- true;
  Condition.broadcast t.p_nonempty;
  Condition.broadcast t.p_space;
  Mutex.unlock t.p_mu

let join t =
  List.iter Domain.join t.p_workers;
  t.p_workers <- []

let run_all ~jobs ~work items =
  let pool = create ~jobs ~capacity:(max 1 (List.length items)) ~work in
  List.iter (fun item -> ignore (submit ~block:true pool item)) items;
  (* The workers drain the queue before they exit, and joining them
     publishes every effect of [work] to the caller. *)
  shutdown pool;
  join pool
