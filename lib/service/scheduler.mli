(** Domain-parallel batch scheduler: the multi-query front end.

    [run] pulls requests from a batch, deduplicates them through
    canonical fingerprints, and fans the remaining solves out across
    the worker domains of a {!Milp.Work_pool}, all under one shared
    {!Milp.Budget.t}. The cache key, lookup, warm start and solve are
    {!Request_path}'s, the same the server uses:

    - an exact cache hit (same fingerprint, cost spec and precision)
      returns the cached certified plan — translated into the request's
      own table numbering — without touching the solver;
    - a stale-precision hit (same fingerprint and cost, different
      precision) re-solves with the cached plan injected as the MIP
      start instead of the greedy seed, under the [Warm_cache] mode;
    - identical fingerprints *in flight* are solved once: the second
      arrival blocks on the first solve's completion and shares its
      result instead of duplicating the work;
    - everything else is a cold solve;
    - a request for which {!Joinopt.Optimizer.should_decompose} holds is
      routed through the decomposition pipeline ({!Decomp.Decompose})
      instead of the monolithic solver; its cache entry and report carry
      an explicit [decomposed] flag and never mix with exact answers.

    Each solve runs under {!Milp.Budget.sub} of the shared budget with
    an optional per-query sub-deadline, so one pathological query
    cannot starve the batch, and cancelling the shared budget (e.g. via
    {!Milp.Budget.with_sigint}) winds down every in-flight solve
    cooperatively — queries drained after a cancellation fall back to
    fast heuristic plans exactly as {!Joinopt.Optimizer.optimize} does.

    The per-query [jobs] knob of the underlying branch & bound is taken
    from [config] and is independent of the scheduler's [jobs]: the
    scheduler parallelizes *across* queries, the solver *within* one. *)

type request = { r_label : string; r_query : Relalg.Query.t }

(** How a request's answer was produced. *)
type source =
  | Solved  (** cold solve *)
  | Cache_hit  (** served from the plan cache, no solve *)
  | Warm_started  (** re-solved from a cached plan at another precision *)
  | Shared  (** waited on an identical in-flight solve *)

val source_to_string : source -> string

type report = {
  o_label : string;
  o_fingerprint : string;
  o_plan : Relalg.Plan.t option;  (** in the request's own numbering *)
  o_objective : float option;
  o_bound : float;
  o_true_cost : float option;
  o_provenance : string;
      (** {!Joinopt.Optimizer.provenance_to_string} of the producing
          solve, or ["error: …"] when it raised *)
  o_source : source;
  o_decomposed : bool;
      (** answered by the decomposition pipeline (possibly via a cached
          decomposed entry) rather than a monolithic certified solve *)
  o_elapsed : float;  (** seconds spent on this request *)
}

type stats = {
  s_queries : int;
  s_domains : int;  (** scheduler worker domains ([max 1 jobs]) *)
  s_solved : int;  (** cold solves *)
  s_cache_hits : int;
  s_warm_starts : int;
  s_shared : int;
  s_failures : int;  (** requests whose solve raised; [o_plan = None] *)
  s_decomposed : int;  (** queries routed through the decomposition pipeline *)
  s_clusters_solved : int;  (** total clusters across decomposed solves *)
  s_seam_fallbacks : int;
      (** decomposed solves whose requested seam heuristic could not run *)
  s_elapsed : float;  (** batch wall clock *)
  s_qps : float;
  s_cache : Plan_cache.stats option;  (** [None] when caching is off *)
}

val run :
  ?config:Joinopt.Optimizer.config ->
  ?cache:Plan_cache.t ->
  ?warm:Protocol.warm_mode ->
  ?jobs:int ->
  ?budget:Milp.Budget.t ->
  ?per_query_limit:float ->
  request list ->
  report list * stats
(** Reports come back in request order. [jobs] (default 1) worker
    domains of a {!Milp.Work_pool} drain the batch; the count is used as
    given (reported in {!stats.s_domains}), so a caller that wants it
    bounded by the core count clamps it itself. [cache = None] disables
    caching (every request is solved — the differential baseline).
    [warm] (default [Warm_cache]) is every request's warm-start mode,
    exactly as a server request's [warm_start] field: [Warm_cache]
    injects a stale-precision entry as the MIP start (reported
    {!Warm_started}) and otherwise keeps [config]'s policy; the other
    modes force their policy and never inject. [budget] defaults to an
    unlimited fresh budget; [per_query_limit] caps each individual solve
    in seconds on top of whatever remains of the shared budget. *)

val synthetic_batch :
  ?dup_fraction:float ->
  seed:int ->
  shape:Relalg.Join_graph.shape ->
  num_tables:int ->
  count:int ->
  unit ->
  request list
(** Duplicate-heavy workload for benchmarks, smoke tests and the CLI's
    generator mode: [count] requests of which roughly [dup_fraction]
    (default 0.5) are structural duplicates of earlier ones — the same
    query under a random table re-declaration and predicate reordering,
    so they exercise the canonical fingerprint rather than physical
    equality. Deterministic in [seed]. *)
