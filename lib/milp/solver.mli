(** Public facade of the MILP solver.

    Orchestrates presolve, root Gomory cuts and branch & bound. This is
    the interface the join-ordering optimizer talks to; it mirrors the
    features of the commercial solver used in the paper (Gurobi): anytime
    incumbents with proven bounds, relative-gap / time-based termination,
    warm starts and parallel-search-grade pruning heuristics (diving).

    Two resilience layers wrap the pipeline. Every incumbent produced by
    branch & bound is re-verified by {!Certify} against the caller's
    original formulation — before presolve and cuts touched it — and the
    finished outcome is audited once more (point, recomputed objective,
    progress-trace invariants, dual bound); the verdict is returned as a
    {!certificate}. When a solve fails numerically (uncertified result,
    or [Unknown] with budget to spare), {!solve} retries on an escalating
    ladder of increasingly conservative configurations — cuts off,
    stricter pivot acceptance, Bland pricing, dense
    factorization — the moral equivalent of a commercial solver's
    "numeric focus" parameter.

    The whole pipeline runs against one {!Budget}: presolve must yield
    within the [Presolve] phase fraction, the cut loop within [Cuts],
    and branch & bound plus every recovery retry draws from whatever
    actually remains — there is no clock arithmetic and no minimum-retry
    floor anywhere. The same budget carries the cancellation token, so
    Ctrl-C (via {!Budget.with_sigint}) or {!Budget.cancel} winds the
    solve down with its best certified incumbent. With a
    {!Checkpoint.config} installed, branch & bound state is persisted
    periodically and on any early stop, and [resume:true] continues a
    killed solve from disk. *)

type params = {
  bb : Branch_bound.params;
  presolve : bool;
  cut_rounds : int;  (** Gomory rounds of up to 16 cuts at the root; 0 disables cuts *)
  max_recovery_rungs : int;
  (** highest recovery-ladder rung tried after a numeric failure
      (0 disables recovery; default 3) *)
  checkpoint : Checkpoint.config option;
  (** when set, the search state is saved to [ck_path] every
      [ck_every_nodes] nodes and on any early stop; default [None] *)
  lint : Lint.level;
  (** [Off] (the default) skips the static audit; [Standard] / [Strict]
      run {!Lint.analyze} on the caller's formulation before solving and
      attach the report to the outcome. The solver never aborts on
      diagnostics — enforcement (via {!Lint.failed}) is the caller's
      policy, which is why the level distinction travels with the
      report. *)
}

val default_params : params
(** Presolve on, 3 cut rounds, default branch & bound, recovery ladder
    up to rung 3, no checkpointing, lint off. *)

val with_time_limit : float -> params -> params
(** Convenience: sets the branch & bound wall-clock limit. The budget
    covers the *whole* solve — presolve, cuts, search, and any recovery
    retries all draw from it. *)

val with_jobs : int -> params -> params
(** Convenience: sets {!Branch_bound.params.jobs} (clamped to ≥ 1).
    Certified results are identical for every value — see
    {!Branch_bound.params.jobs}. *)

val with_checkpoint : Checkpoint.config -> params -> params

val with_lint : Lint.level -> params -> params

type certificate =
  | Certified of Certify.report
      (** the returned point was independently re-verified against the
          original problem, its objective recomputed, and the progress
          trace and dual bound passed the anytime-invariant audit *)
  | Uncertified of string  (** an incumbent exists but failed the audit *)
  | No_incumbent  (** nothing to certify (infeasible / no solution found) *)

type outcome = {
  result : Branch_bound.outcome;
  certificate : certificate;
  rungs : int;  (** recovery rung that produced [result]; 0 = first try *)
  resumed : bool;  (** the solve continued from an on-disk checkpoint *)
  lint_report : Lint.report option;
      (** static audit of the input formulation; [Some] iff
          [params.lint <> Lint.Off] *)
}

val solve :
  ?params:params ->
  ?budget:Budget.t ->
  ?resume:bool ->
  ?mip_start:Warm_start.candidate ->
  ?on_progress:(Branch_bound.progress -> unit) ->
  Problem.t ->
  outcome
(** [budget] defaults to a fresh one built from
    [params.bb.time_limit]; pass your own to share a deadline or a
    cancellation token (e.g. wired to SIGINT) with the caller.

    [resume] (default [false]) loads the configured checkpoint and
    continues the interrupted search instead of starting at the root.
    The checkpoint stores the post-presolve formulation together with
    the frontier, so a [jobs = 1] resumed solve pops the exact node
    sequence the interrupted run would have and certifies the same plan
    and objective. A missing, corrupted, truncated or mismatched
    checkpoint logs a warning and solves fresh — resume is an
    optimization, never a correctness dependency. Escalated recovery
    retries never resume: a rung-0 failure makes the checkpointed
    trajectory itself suspect. *)
