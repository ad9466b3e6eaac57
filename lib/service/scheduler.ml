module Optimizer = Joinopt.Optimizer
module Cost_enc = Joinopt.Cost_enc
module Thresholds = Joinopt.Thresholds
module Encoding = Joinopt.Encoding
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

let cache_key (config : Optimizer.config) fp =
  {
    Plan_cache.k_fingerprint = Fingerprint.digest fp;
    k_cost = Cost_enc.spec_to_string config.Optimizer.cost;
    k_precision =
      Thresholds.precision_to_string config.Optimizer.encoding.Encoding.precision;
  }

let run ?(config = Optimizer.default_config) ?cache ?(cache_warm = true) ?(jobs = 1)
    ?(oversubscribe = false) ?budget ?per_query_limit requests =
  (* MILP solves are CPU-bound: more domains than cores only adds
     cross-domain GC synchronization, so the requested parallelism is
     clamped to the runtime's recommendation unless the caller insists
     (dedup-heavy batches spend most of their time *waiting*, where
     extra domains are harmless). *)
  let jobs =
    let requested = max 1 jobs in
    if oversubscribe then requested
    else min requested (max 1 (Domain.recommended_domain_count ()))
  in
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let budget = match budget with Some b -> b | None -> Budget.create () in
  let t_start = Budget.now () in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let solved = Atomic.make 0 in
  let cache_hits = Atomic.make 0 in
  let warm_starts = Atomic.make 0 in
  let shared = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let decomposed = Atomic.make 0 in
  let clusters_solved = Atomic.make 0 in
  let seam_fallbacks = Atomic.make 0 in
  let fl_mutex = Mutex.create () in
  let fl_table : (string, flight) Hashtbl.t = Hashtbl.create 64 in
  (* Solve one query cold (or warm-started from a cached sibling) under
     its own sub-deadline of the shared budget. The solver is handed the
     *canonical* renumbering of the query, for two reasons: the entry
     lands in the cache in canonical numbering without translation, and —
     more importantly — every member of a fingerprint equivalence class
     then solves the byte-identical MILP instance, so cost *ties* break
     the same way whether an answer was solved cold or translated from a
     cached sibling. (The optimizer is deterministic per instance, but
     not equivariant under renumbering.) *)
  let solve_one ?warm _fp q =
    let sub = Budget.sub budget ?limit:per_query_limit () in
    if Optimizer.should_decompose config q then begin
      (* The decomposition path: partitioned MILP with heuristic seams.
         The cached warm start (if any) is not consumable here — it
         carries no MILP assignment for the global query — and the entry
         is flagged [e_decomposed] so it is never served as exact. *)
      let d =
        Decomp.Decompose.optimize ~config ~budget:sub
          (Fingerprint.canonical_query q)
      in
      Atomic.incr decomposed;
      ignore
        (Atomic.fetch_and_add clusters_solved d.Decomp.Decompose.d_num_clusters);
      if d.Decomp.Decompose.d_seam_fallback then Atomic.incr seam_fallbacks;
      Ok
        {
          Plan_cache.e_plan = d.Decomp.Decompose.d_plan;
          e_objective = None;
          e_bound = 0.;
          e_true_cost = Some d.Decomp.Decompose.d_true_cost;
          e_provenance =
            Printf.sprintf "decomposed:%d:%s%s%s"
              d.Decomp.Decompose.d_num_clusters d.Decomp.Decompose.d_seam
              (if d.Decomp.Decompose.d_seam_fallback then ":seam-fallback"
               else "")
              (if d.Decomp.Decompose.d_degraded then ":degraded" else "");
          e_precision =
            Thresholds.precision_to_string
              config.Optimizer.encoding.Encoding.precision;
          e_decomposed = true;
        }
    end
    else begin
      let config =
        match warm with
        | Some (entry : Plan_cache.entry) ->
          (* Cached plans are already canonical, like the query we solve. *)
          Optimizer.with_warm_start (Some entry.Plan_cache.e_plan) config
        | None -> config
      in
      let r = Optimizer.optimize ~config ~budget:sub (Fingerprint.canonical_query q) in
      match r.Optimizer.plan with
      | Some plan ->
        Ok
          {
            Plan_cache.e_plan = plan;
            e_objective = r.Optimizer.objective;
            e_bound = r.Optimizer.bound;
            e_true_cost = r.Optimizer.true_cost;
            e_provenance =
              (match r.Optimizer.provenance with
              | Some p -> Optimizer.provenance_to_string p
              | None -> "none");
            e_precision =
              Thresholds.precision_to_string config.Optimizer.encoding.Encoding.precision;
            e_decomposed = false;
          }
      | None -> Error "no plan produced within the per-query budget"
    end
  in
  let process i =
    let req = reqs.(i) in
    let t0 = Budget.now () in
    let fp = Fingerprint.of_query req.r_query in
    let key = cache_key config fp in
    let finish source (outcome : (Plan_cache.entry, string) result) =
      let report =
        match outcome with
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
          Atomic.incr failures;
          {
            o_label = req.r_label;
            o_fingerprint = key.Plan_cache.k_fingerprint;
            o_plan = None;
            o_objective = None;
            o_bound = 0.;
            o_true_cost = None;
            o_provenance = "error: " ^ msg;
            o_source = source;
            o_decomposed = false;
            o_elapsed = Budget.now () -. t0;
          }
      in
      results.(i) <- Some report
    in
    let lookup =
      match cache with Some c -> Plan_cache.find c key | None -> Plan_cache.Miss
    in
    (* Honest-provenance gate: a decomposed entry answers only requests
       that would themselves take the decomposition path; an exact
       request falls through to a fresh solve (which then overwrites the
       decomposed entry under the same key). *)
    let lookup =
      match lookup with
      | Plan_cache.Hit e
        when e.Plan_cache.e_decomposed
             && not (Optimizer.should_decompose config req.r_query) ->
        Plan_cache.Miss
      | l -> l
    in
    match lookup with
    | Plan_cache.Hit entry ->
      Atomic.incr cache_hits;
      finish Cache_hit (Ok entry)
    | (Plan_cache.Stale_precision _ | Plan_cache.Miss) as lookup -> (
      let warm =
        match lookup with
        | Plan_cache.Stale_precision e when cache_warm -> Some e
        | _ -> None
      in
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
              try solve_one ?warm fp req.r_query
              with exn -> Error (Printexc.to_string exn)
            in
            (match (cache, outcome) with
            | Some c, Ok entry -> Plan_cache.add c key entry
            | _ -> ());
            publish outcome;
            (match warm with
            | Some _ -> Atomic.incr warm_starts
            | None -> Atomic.incr solved);
            finish (if warm <> None then Warm_started else Solved) outcome))
  in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (try process i
       with exn ->
         (* Never let a worker die silently: record the failure and move
            on so the batch (and any waiters on other keys) completes. *)
         Atomic.incr failures;
         results.(i) <-
           Some
             {
               o_label = reqs.(i).r_label;
               o_fingerprint = "";
               o_plan = None;
               o_objective = None;
               o_bound = 0.;
               o_true_cost = None;
               o_provenance = "error: " ^ Printexc.to_string exn;
               o_source = Solved;
               o_decomposed = false;
               o_elapsed = 0.;
             });
      worker ()
    end
  in
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
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
