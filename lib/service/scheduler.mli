(** Domain-parallel batch scheduler: the multi-query front end.

    [run] pulls requests from a batch, deduplicates them through
    canonical fingerprints, and fans the remaining solves out across
    OCaml 5 domains, all under one shared {!Milp.Budget.t}:

    - an exact cache hit (same fingerprint, cost spec and precision)
      returns the cached certified plan — translated into the request's
      own table numbering — without touching the solver;
    - a stale-precision hit (same fingerprint and cost, different
      precision) re-solves with the cached plan injected as the MIP
      start instead of the greedy seed ({!Joinopt.Optimizer.config.warm_start});
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
  s_domains : int;  (** effective scheduler domains after clamping *)
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
  ?cache_warm:bool ->
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?budget:Milp.Budget.t ->
  ?per_query_limit:float ->
  request list ->
  report list * stats
(** Reports come back in request order. [jobs] (default 1) is the
    requested number of scheduler domains; because MILP solves are
    CPU-bound, the effective count (reported in {!stats.s_domains}) is
    clamped to [Domain.recommended_domain_count ()] unless
    [oversubscribe] is set — oversubscribing CPU-bound domains only buys
    cross-domain GC synchronization, but is useful when most requests
    dedup against in-flight solves (waiters sleep) and in tests that
    must exercise the in-flight path on small machines. [cache = None]
    disables caching (every request is solved — the differential
    baseline); [cache_warm] (default [true]) controls whether a
    stale-precision cache entry is injected as the MIP start — with it
    off such requests solve under [config]'s own warm-start policy and
    are reported as {!Solved}; [budget] defaults to an unlimited fresh
    budget;
    [per_query_limit] caps each individual solve in seconds on top of
    whatever remains of the shared budget. *)

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
