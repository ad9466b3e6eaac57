module Optimizer = Joinopt.Optimizer
module Budget = Milp.Budget
module Faults = Milp.Faults
module Query = Relalg.Query
module Plan = Relalg.Plan
module Workload = Relalg.Workload

type request = { r_label : string; r_query : Query.t }

type source = Solved | Cache_hit | Warm_started | Shared

let source_to_string = function
  | Solved -> "solved"
  | Cache_hit -> "cache-hit"
  | Warm_started -> "warm-started"
  | Shared -> "shared-in-flight"

type report = {
  o_label : string;
  o_fingerprint : string;
  o_plan : Plan.t option;
  o_objective : float option;
  o_bound : float;
  o_true_cost : float option;
  o_provenance : string;
  o_source : source;
  o_decomposed : bool;
  o_elapsed : float;
}

type stats = {
  s_queries : int;
  s_domains : int;
  s_solved : int;
  s_cache_hits : int;
  s_warm_starts : int;
  s_shared : int;
  s_failures : int;
  s_decomposed : int;
  s_clusters_solved : int;
  s_seam_fallbacks : int;
  s_elapsed : float;
  s_qps : float;
  s_cache : Plan_cache.stats option;
}

(* One in-flight solve: the first arrival owns it and publishes into
   [f_result]; later arrivals with the same key block on the condition
   until it is filled. The entry is stored in canonical numbering so
   every waiter can rebind it to its own query. *)
type flight = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_result : (Plan_cache.entry, string) result option;
}

type claim = First of flight | Waiter of flight

let claim_flight mutex table key =
  (* Schedule-perturbation fault point: delaying a claim here races it
     against a concurrent publish_flight removing the entry. *)
  Faults.yield_point ();
  Mutex.lock mutex;
  let c =
    match Hashtbl.find_opt table key with
    | Some fl -> Waiter fl
    | None ->
      let fl = { f_mutex = Mutex.create (); f_cond = Condition.create (); f_result = None } in
      Hashtbl.replace table key fl;
      First fl
  in
  Mutex.unlock mutex;
  c

let publish_flight mutex table key fl result =
  Mutex.lock mutex;
  Hashtbl.remove table key;
  Mutex.unlock mutex;
  (* Fault point in the publish window: the entry is out of the table
     but the result is not yet filled — a waiter that claimed before the
     removal must still be woken by the broadcast below. *)
  Faults.yield_point ();
  Mutex.lock fl.f_mutex;
  fl.f_result <- Some result;
  Condition.broadcast fl.f_cond;
  Mutex.unlock fl.f_mutex

let await_flight fl =
  Faults.yield_point ();
  Mutex.lock fl.f_mutex;
  while fl.f_result = None do
    Condition.wait fl.f_cond fl.f_mutex
  done;
  let r = Option.get fl.f_result in
  Mutex.unlock fl.f_mutex;
  r

let run ?(config = Optimizer.default_config) ?cache ?(warm = Protocol.Warm_cache) ?(jobs = 1)
    ?budget ?per_query_limit requests =
  let jobs = max 1 jobs in
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let budget = match budget with Some b -> b | None -> Budget.create () in
  let t_start = Budget.now () in
  let results = Array.make n None in
  let solved = Atomic.make 0 in
  let cache_hits = Atomic.make 0 in
  let warm_starts = Atomic.make 0 in
  let shared = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let decomposed = Atomic.make 0 in
  let clusters_solved = Atomic.make 0 in
  let seam_fallbacks = Atomic.make 0 in
  let failed ~label ~fingerprint ~source ~elapsed msg =
    Atomic.incr failures;
    {
      o_label = label;
      o_fingerprint = fingerprint;
      o_plan = None;
      o_objective = None;
      o_bound = 0.;
      o_true_cost = None;
      o_provenance = "error: " ^ msg;
      o_source = source;
      o_decomposed = false;
      o_elapsed = elapsed;
    }
  in
  let fl_mutex = Mutex.create () in
  let fl_table : (string, flight) Hashtbl.t = Hashtbl.create 64 in
  (* Solve one query under its own sub-deadline of the shared budget. *)
  let solve_one ?warm_entry rp =
    let sub = Budget.sub budget ?limit:per_query_limit () in
    let o = Request_path.solve ~budget:sub ~mode:warm ?warm:warm_entry rp in
    if rp.Request_path.rp_decomposing then begin
      Atomic.incr decomposed;
      ignore (Atomic.fetch_and_add clusters_solved o.Request_path.so_clusters);
      if o.Request_path.so_seam_fallback then Atomic.incr seam_fallbacks
    end;
    match o.Request_path.so_entry with
    | Some entry -> Ok entry
    | None -> Error "no plan produced within the per-query budget"
  in
  let process i =
    let req = reqs.(i) in
    let t0 = Budget.now () in
    let rp = Request_path.prepare config req.r_query in
    let key = rp.Request_path.rp_key in
    let fp = rp.Request_path.rp_fp in
    let finish source (outcome : (Plan_cache.entry, string) result) =
      results.(i) <-
        Some
          (match outcome with
          | Ok e ->
            {
              o_label = req.r_label;
              o_fingerprint = key.Plan_cache.k_fingerprint;
              o_plan = Some (Fingerprint.plan_of_canonical fp e.Plan_cache.e_plan);
              o_objective = e.Plan_cache.e_objective;
              o_bound = e.Plan_cache.e_bound;
              o_true_cost = e.Plan_cache.e_true_cost;
              o_provenance = e.Plan_cache.e_provenance;
              o_source = source;
              o_decomposed = e.Plan_cache.e_decomposed;
              o_elapsed = Budget.now () -. t0;
            }
          | Error msg ->
            failed ~label:req.r_label ~fingerprint:key.Plan_cache.k_fingerprint ~source
              ~elapsed:(Budget.now () -. t0) msg)
    in
    let lookup =
      match cache with Some c -> Request_path.lookup c rp | None -> Plan_cache.Miss
    in
    match lookup with
    | Plan_cache.Hit entry ->
      Atomic.incr cache_hits;
      finish Cache_hit (Ok entry)
    | Plan_cache.Stale_precision _ | Plan_cache.Miss -> (
      let warm_entry = Request_path.warm_entry warm rp lookup in
      match claim_flight fl_mutex fl_table (Plan_cache.flat_key key) with
      | Waiter fl ->
        Atomic.incr shared;
        finish Shared (await_flight fl)
      | First fl ->
        (* The flight's owner must publish *no matter how it dies*: any
           exception escaping between claiming the flight and publishing
           (cache insertion, bookkeeping, an injected abort) would
           otherwise leave the entry in the table and every waiter
           asleep on the condition variable forever. The [finally] below
           wakes them with the failure; [published] keeps the success
           path from being overwritten. *)
        let published = ref false in
        let publish outcome =
          if not !published then begin
            published := true;
            publish_flight fl_mutex fl_table (Plan_cache.flat_key key) fl outcome
          end
        in
        Fun.protect
          ~finally:(fun () -> publish (Error "in-flight solve crashed before publishing"))
          (fun () ->
            if Faults.request_aborts () then raise Faults.Injected_abort;
            let outcome =
              try solve_one ?warm_entry rp with exn -> Error (Printexc.to_string exn)
            in
            (match (cache, outcome) with
            | Some c, Ok entry -> Plan_cache.add c key entry
            | _ -> ());
            publish outcome;
            (match warm_entry with
            | Some _ -> Atomic.incr warm_starts
            | None -> Atomic.incr solved);
            finish (if warm_entry <> None then Warm_started else Solved) outcome))
  in
  let work i =
    (* Never lose a request silently: record the failure so the batch
       (and any waiters on other keys) completes. *)
    try process i
    with exn ->
      results.(i) <-
        Some
          (failed ~label:reqs.(i).r_label ~fingerprint:"" ~source:Solved ~elapsed:0.
             (Printexc.to_string exn))
  in
  Milp.Work_pool.run_all ~jobs ~work (List.init n Fun.id);
  let elapsed = Budget.now () -. t_start in
  let reports =
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  in
  ( reports,
    {
      s_queries = n;
      s_domains = jobs;
      s_solved = Atomic.get solved;
      s_cache_hits = Atomic.get cache_hits;
      s_warm_starts = Atomic.get warm_starts;
      s_shared = Atomic.get shared;
      s_failures = Atomic.get failures;
      s_decomposed = Atomic.get decomposed;
      s_clusters_solved = Atomic.get clusters_solved;
      s_seam_fallbacks = Atomic.get seam_fallbacks;
      s_elapsed = elapsed;
      s_qps = (if elapsed > 0. then float_of_int n /. elapsed else 0.);
      s_cache = Option.map Plan_cache.stats cache;
    } )

let synthetic_batch ?(dup_fraction = 0.5) ~seed ~shape ~num_tables ~count () =
  if dup_fraction < 0. || dup_fraction > 1. then
    invalid_arg "Scheduler.synthetic_batch: dup_fraction must be in [0, 1]";
  if count < 1 then invalid_arg "Scheduler.synthetic_batch: count must be >= 1";
  let state = Random.State.make [| seed; count; 0x5e4f1ce |] in
  let rand_perm len =
    let perm = Array.init len (fun i -> i) in
    for i = len - 1 downto 1 do
      let j = Random.State.int state (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    perm
  in
  let bases = ref [] in
  let nbases = ref 0 in
  List.init count (fun i ->
      let duplicate =
        !nbases > 0 && Random.State.float state 1. < dup_fraction
      in
      if duplicate then begin
        let base = List.nth !bases (Random.State.int state !nbases) in
        (* A *structural* duplicate: same query, freshly permuted table
           declarations and predicate order — physical equality would
           not catch it, the canonical fingerprint must. *)
        let q = Query.permute_tables base ~perm:(rand_perm (Query.num_tables base)) in
        let q =
          Query.permute_predicates q ~perm:(rand_perm (Query.num_predicates q))
        in
        { r_label = Printf.sprintf "gen-%d(dup)" i; r_query = q }
      end
      else begin
        let q =
          Workload.generate ~state ~seed:(seed + i) ~shape ~num_tables ()
        in
        bases := q :: !bases;
        incr nbases;
        { r_label = Printf.sprintf "gen-%d" i; r_query = q }
      end)
