(* The request path shared by both service front ends, the batch
   scheduler and the persistent server: the plan-cache key, the
   honest-provenance lookup, the warm-start mode's solver configuration
   and the exact-or-decomposed solve that builds a cache entry. No I/O
   and no locks — the callers own concurrency, retries and
   supervision. *)

module Optimizer = Joinopt.Optimizer
module Thresholds = Joinopt.Thresholds
module Encoding = Joinopt.Encoding
module Decompose = Decomp.Decompose

type t = {
  rp_config : Optimizer.config;
  rp_query : Relalg.Query.t;
  rp_fp : Fingerprint.t;
  rp_key : Plan_cache.key;
  rp_decomposing : bool;
}

let cache_key (config : Optimizer.config) fp =
  {
    Plan_cache.k_fingerprint = Fingerprint.digest fp;
    k_cost = Joinopt.Cost_enc.spec_to_string config.Optimizer.cost;
    k_precision = Thresholds.precision_to_string config.Optimizer.encoding.Encoding.precision;
  }

let prepare config q =
  let fp = Fingerprint.of_query q in
  {
    rp_config = config;
    rp_query = q;
    rp_fp = fp;
    rp_key = cache_key config fp;
    rp_decomposing = Optimizer.should_decompose config q;
  }

(* Honest provenance: a decomposed entry answers only requests that
   would themselves decompose. An exact request falls through to a
   fresh solve, whose insert then overwrites the decomposed entry under
   the same key. *)
let lookup cache rp =
  match Plan_cache.find cache rp.rp_key with
  | Plan_cache.Hit e when e.Plan_cache.e_decomposed && not rp.rp_decomposing ->
    Plan_cache.Miss
  | l -> l

let warm_entry (mode : Protocol.warm_mode) rp = function
  | Plan_cache.Stale_precision e when mode = Protocol.Warm_cache && not rp.rp_decomposing ->
    Some e
  | _ -> None

let warm_config (mode : Protocol.warm_mode) warm config =
  match mode with
  | Protocol.Warm_off -> Optimizer.with_warm_start_policy Optimizer.Ws_off config
  | Protocol.Warm_greedy -> Optimizer.with_warm_start_policy Optimizer.Ws_greedy config
  | Protocol.Warm_portfolio -> Optimizer.with_warm_start_policy Optimizer.Ws_portfolio config
  | Protocol.Warm_cache -> (
    (* A cached plan for the same canonical query beats re-running
       heuristics; with no entry the configured policy stands. *)
    match (warm : Plan_cache.entry option) with
    | Some e -> Optimizer.with_warm_start (Some e.Plan_cache.e_plan) config
    | None -> config)

type outcome = {
  so_entry : Plan_cache.entry option;
  so_completed : bool;
  so_clusters : int;
  so_seam_fallback : bool;
}

(* The solver is handed the *canonical* renumbering of the query, for
   two reasons: the entry lands in the cache in canonical numbering
   without translation, and — more importantly — every member of a
   fingerprint equivalence class then solves the byte-identical MILP
   instance, so cost *ties* break the same way whether an answer was
   solved cold or translated from a cached sibling. (The optimizer is
   deterministic per instance, but not equivariant under renumbering.) *)
let solve ?jobs ~budget ~mode ?warm rp =
  let config = warm_config mode warm rp.rp_config in
  let q = Fingerprint.canonical_query rp.rp_query in
  if rp.rp_decomposing then begin
    let d = Decompose.optimize ~config ~budget ?jobs q in
    {
      so_entry =
        Some
          {
            Plan_cache.e_plan = d.Decompose.d_plan;
            e_objective = None;
            e_bound = 0.;
            e_true_cost = Some d.Decompose.d_true_cost;
            e_provenance =
              Printf.sprintf "decomposed:%d:%s%s%s" d.Decompose.d_num_clusters
                d.Decompose.d_seam
                (if d.Decompose.d_seam_fallback then ":seam-fallback" else "")
                (if d.Decompose.d_degraded then ":degraded" else "");
            e_precision = rp.rp_key.Plan_cache.k_precision;
            e_decomposed = true;
          };
      so_completed = not d.Decompose.d_degraded;
      so_clusters = d.Decompose.d_num_clusters;
      so_seam_fallback = d.Decompose.d_seam_fallback;
    }
  end
  else begin
    let r = Optimizer.optimize ~config ~budget q in
    {
      so_entry =
        Option.map
          (fun plan ->
            {
              Plan_cache.e_plan = plan;
              e_objective = r.Optimizer.objective;
              e_bound = r.Optimizer.bound;
              e_true_cost = r.Optimizer.true_cost;
              e_provenance =
                (match r.Optimizer.provenance with
                | Some p -> Optimizer.provenance_to_string p
                | None -> "none");
              e_precision = rp.rp_key.Plan_cache.k_precision;
              e_decomposed = false;
            })
          r.Optimizer.plan;
      so_completed = r.Optimizer.stopped = Milp.Branch_bound.Completed;
      so_clusters = 0;
      so_seam_fallback = false;
    }
  end
