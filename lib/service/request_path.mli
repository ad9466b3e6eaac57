(** The request path shared by both service front ends —
    {!Scheduler.run} ([batch]) and {!Server} ([serve]). It owns every
    decision the two must agree on: the plan-cache key, the
    honest-provenance lookup, the warm-start mode's solver
    configuration, and the exact-or-decomposed solve that builds a
    canonical-numbering {!Plan_cache.entry}. It does no I/O and takes no
    locks; concurrency, retries and supervision stay with the callers. *)

type t = private {
  rp_config : Joinopt.Optimizer.config;
  rp_query : Relalg.Query.t;  (** in the request's own numbering *)
  rp_fp : Fingerprint.t;
  rp_key : Plan_cache.key;  (** fingerprint, cost spec and precision *)
  rp_decomposing : bool;  (** {!Joinopt.Optimizer.should_decompose} holds *)
}

val prepare : Joinopt.Optimizer.config -> Relalg.Query.t -> t

val lookup : Plan_cache.t -> t -> Plan_cache.lookup
(** {!Plan_cache.find} behind the honest-provenance gate: a decomposed
    entry is a [Miss] for a request that would not itself decompose. *)

val warm_entry : Protocol.warm_mode -> t -> Plan_cache.lookup -> Plan_cache.entry option
(** The stale-precision entry a solve consumes as its MIP start: only
    under [Warm_cache], and never on the decomposition path (a global
    plan has no MILP assignment in a cluster's model). [Some _] is what
    both front ends count as a warm start. *)

type outcome = {
  so_entry : Plan_cache.entry option;
      (** [None]: the exact solve produced no plan within its budget *)
  so_completed : bool;
      (** exact: the search ran to completion (not timed out);
          decomposed: no cluster degraded *)
  so_clusters : int;  (** clusters solved; [0] on the exact path *)
  so_seam_fallback : bool;  (** the requested seam heuristic could not run *)
}

val solve :
  ?jobs:int ->
  budget:Milp.Budget.t ->
  mode:Protocol.warm_mode ->
  ?warm:Plan_cache.entry ->
  t ->
  outcome
(** Solve the canonical renumbering of the query under [budget] —
    through {!Decomp.Decompose.optimize} (with [jobs] cluster workers)
    when [rp_decomposing], else {!Joinopt.Optimizer.optimize} — with
    [mode]'s warm-start policy; under [Warm_cache] a [warm] entry (from
    {!warm_entry}) is injected as the MIP start. Exceptions propagate. *)
