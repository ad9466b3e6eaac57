(** LP-relaxation branch & bound over a {!Problem.t}.

    Best-bound node selection with warm-started simplex re-solves, variable
    branching guided by user priorities then fractionality, a periodic
    diving primal heuristic, MIP starts, and anytime progress reporting
    (incumbent, proven dual bound, relative gap) — the features of
    commercial MILP solvers that the paper's query optimizer relies on. *)

type params = {
  time_limit : float option;  (** wall-clock seconds *)
  node_limit : int option;
  simplex : Simplex.params;
  jobs : int;
  (** Number of domains used by the solve. [1] (the default) is the
      serial engine, bit-identical to the pre-parallel behavior. [N > 1]
      spawns [N-1] worker domains that speculatively solve the LP
      relaxations of open nodes while the search itself — node
      selection, pruning, incumbent certification, branching, diving —
      replays the serial algorithm on the calling domain. Because node
      LPs are pure functions of the node, every value of [jobs] returns
      the same certified plan and objective (byte-identical, absent a
      wall-clock [time_limit] cutting the run short); parallelism only
      changes wall-clock time. *)
}

val default_params : params
(** No limits, default simplex parameters, [jobs = 1]. *)

val int_tol : float
(** Integrality tolerance on LP values, 1e-5. The other search settings
    are fixed too: the search stops at a relative gap of 1e-6, and it
    dives from every 64th node, fixing at most 50 variables per dive. *)

type progress = {
  pr_elapsed : float;
  pr_nodes : int;
  pr_incumbent : float option;  (** user-sense objective of best solution *)
  pr_bound : float;  (** user-sense proven bound on the optimum *)
  pr_gap : float option;  (** relative gap, when an incumbent exists *)
}

type status =
  | Optimal  (** incumbent proven optimal within a relative gap of 1e-6 *)
  | Feasible  (** stopped at a limit with an incumbent in hand *)
  | Infeasible
  | Unbounded
  | Unknown  (** stopped at a limit before finding any solution *)

(** Why the search ended — orthogonal to {!status}: a [Feasible] outcome
    may be any of the three early stops, and an [Interrupted] solve still
    returns its best certified incumbent. *)
type stop_reason =
  | Completed  (** ran to a natural conclusion (optimality or exhaustion) *)
  | Time_limit  (** the budget's deadline passed *)
  | Node_limit
  | Interrupted  (** cooperative cancellation (SIGINT, {!Budget.cancel}) *)

type outcome = {
  o_status : status;
  o_objective : float option;  (** user sense *)
  o_x : float array option;  (** structural variable values *)
  o_bound : float;  (** user-sense dual bound (best possible objective) *)
  o_nodes : int;
  o_simplex_iters : int;
  o_trace : progress list;  (** chronological progress records *)
  o_bound_is_proven : bool;
  (** [false] when a node LP failed numerically and had to be dropped, in
      which case [o_bound] is best-effort rather than a certificate. *)
  o_rejected_incumbents : int;
  (** integral LP points that {!Certify.check_point} refused to install as
      incumbents — nonzero values signal numeric trouble in the LP stack *)
  o_stop : stop_reason;
  o_seed : Warm_start.seed option;
  (** Provenance of the seeded initial incumbent when a [mip_start]
      survived certification; [None] on a cold start or when the
      candidate was rejected. Carried through checkpoints, so a resumed
      solve reports the same seed as the uninterrupted one. *)
}

type snapshot
(** The complete resumable state of an interrupted search: the open-node
    frontier in byte-identical heap layout, the certified incumbent, the
    proven-bound bookkeeping and all counters. Plain data by
    construction — safe to [Marshal] (which is how {!Checkpoint}
    persists it) and carrying no closures or handles. Produce one via
    the [checkpoint] callback of {!solve}; feed it back via [resume]. *)

val gap : incumbent:float -> bound:float -> float
(** Relative gap [|incumbent - bound| / max(|incumbent|, eps)], in
    minimization user sense; 0 when they coincide. *)

val solve :
  ?params:params ->
  ?budget:Budget.t ->
  ?checkpoint:int * (snapshot -> unit) ->
  ?certify_against:Problem.t ->
  ?mip_start:Warm_start.candidate ->
  ?on_progress:(progress -> unit) ->
  ?resume:snapshot ->
  Problem.t ->
  outcome
(** [mip_start] is a candidate assignment to structural variables with a
    provenance label; it is verified with {!Certify.check_point} (after
    the {!Faults.mangle_warm_start} chaos hook) and, when valid,
    installed as the initial incumbent with its provenance recorded in
    [o_seed] (warm starts mirror Gurobi's MIP starts, which the paper's
    anytime experiments depend on for early plans). A candidate that
    fails certification is logged, dropped, and the solve proceeds cold.

    [certify_against] is the problem every candidate incumbent is
    re-verified against before installation (default: the problem being
    solved). The solver facade passes the caller's *original* formulation
    here, so presolve and cutting planes — which preserve variable
    indexing — cannot certify their own transformations. Points failing
    certification are dropped and counted in [o_rejected_incumbents].

    [budget] is the solve's deadline-and-cancellation token; when absent
    one is created from [params.time_limit]. It is carried into every
    node LP (including the speculative ones on worker domains), so both
    the deadline and a {!Budget.cancel} request stop the whole engine at
    the next cooperative check, workers drained, with the best certified
    incumbent returned as [Feasible] and [o_stop = Interrupted].

    [checkpoint = (every, sink)] calls [sink] with a {!snapshot} after
    every [every] nodes (non-positive means
    {!Checkpoint.default_every_nodes}) and once more on any early stop;
    exceptions from [sink] are logged and swallowed. [resume] continues
    a search from a snapshot instead of starting at the root — the MIP
    start and root relaxation are skipped, and a [jobs = 1] resumed run
    pops nodes in exactly the order the interrupted run would have,
    reaching the same certified plan, objective and total node count.
    The snapshot must come from a solve of the same problem with the
    same params; {!Checkpoint.problem_digest} tagging enforces the
    former at the persistence layer. *)
