(** End-to-end MILP-based join ordering: encode the query, hand the MILP
    to the solver, stream anytime progress (incumbent cost and proven
    lower bound — the paper's Cost/LB criterion, Section 7.1), and decode
    the winning assignment back into a left-deep plan. *)

(** How the branch & bound gets its initial incumbent. Every candidate —
    whatever its origin — is translated into a full MILP assignment from
    the [joinopt.*] metadata alone ({!Milp.Warm_start.assignment_of_plan})
    and re-certified against the original formulation before it is
    seeded, so a corrupt or stale candidate degrades to a cold start,
    never to a wrong answer. *)
type warm_start_policy =
  | Ws_off  (** cold start: no incumbent until the tree finds one *)
  | Ws_greedy
      (** seed the greedy heuristic's plan, so an incumbent exists from
          the first instant (mirrors warm-start use of commercial
          solvers); the default *)
  | Ws_portfolio
      (** race greedy / IKKBZ / simulated annealing on separate domains
          under a small {!Milp.Budget.sub} slice of the solve budget and
          seed the best certified finisher *)
  | Ws_plan of Relalg.Plan.t
      (** a caller-supplied plan — the multi-query service uses this to
          inject a translated plan-cache entry instead of re-running
          heuristics. A plan that fails {!Relalg.Plan.validate} is
          ignored (with a warning) and the greedy seed applies. *)

val warm_start_to_string : warm_start_policy -> string
(** ["off"], ["greedy"], ["portfolio"] or ["plan"]. *)

val warm_start_of_string : string -> (warm_start_policy, string) result
(** Parses ["off"] / ["greedy"] / ["portfolio"] (the CLI surface;
    [Ws_plan] has no textual form). *)

val max_monolithic_tables : int
(** 62 — the hard ceiling of the monolithic (bitmask-based) encoding and
    cost paths. Larger queries must go through the decomposition
    subsystem (lib/decomp); {!optimize} refuses them with a clear
    [Invalid_argument]. *)

(** When the decomposition subsystem takes over from the monolithic
    MILP. The policy lives here (plain data) so one [config] describes
    the whole pipeline; the driver that interprets it is
    [Decomp.Decompose], which sits above this library. *)
type decomp_policy =
  | Dc_off  (** never decompose; queries past the ceiling are refused *)
  | Dc_auto
      (** decompose past [dc_threshold] tables (and always past
          {!max_monolithic_tables}); smaller queries solve monolithically *)
  | Dc_force  (** decompose every query of three or more tables *)

val decomp_policy_to_string : decomp_policy -> string
val decomp_policy_of_string : string -> (decomp_policy, string) result

(** Which heuristic orders the clusters at the seam. *)
type seam_heuristic =
  | Seam_ikkbz  (** IKKBZ on the contracted cluster graph when it is a
                    tree, greedy otherwise (counted as a seam fallback) *)
  | Seam_greedy  (** greedy always *)

val seam_to_string : seam_heuristic -> string
val seam_of_string : string -> (seam_heuristic, string) result

type decomp_config = {
  dc_policy : decomp_policy;
  dc_threshold : int;  (** [Dc_auto] decomposes when tables exceed this *)
  dc_max_cluster : int;  (** largest cluster the partitioner may grow *)
  dc_seam : seam_heuristic;
}

val default_decomp : decomp_config
(** [Dc_off], threshold 30, clusters of at most 12 tables, IKKBZ seam. *)

type config = {
  encoding : Encoding.config;
  cost : Cost_enc.spec;
  pm : Relalg.Cost_model.page_model;
  solver : Milp.Solver.params;
  warm_start : warm_start_policy;
  decomp : decomp_config;
}

val default_config : config
(** Medium precision, hash joins (the paper's experimental setup), greedy
    warm start, solver defaults, decomposition off. *)

val with_decomp : decomp_config -> config -> config
(** Validates the knobs: threshold >= 2, max cluster size in
    [2, {!max_monolithic_tables}]. Raises [Invalid_argument] otherwise. *)

val should_decompose : config -> Relalg.Query.t -> bool
(** Whether this query takes the decomposition path under the config's
    policy — the single predicate the CLI, scheduler and server consult
    before choosing between {!optimize} and the decomposition driver. *)

val with_precision : Thresholds.precision -> config -> config
val with_time_limit : float -> config -> config

val with_jobs : int -> config -> config
(** Number of domains for the branch & bound (clamped to ≥ 1). The
    certified plan and objective are identical for every value — see
    {!Milp.Branch_bound.params.jobs}. *)

val with_checkpoint : Milp.Checkpoint.config -> config -> config
(** Persist the branch & bound state to the given path periodically and
    on any early stop, enabling [resume] in {!optimize}. *)

val with_lint : Milp.Lint.level -> config -> config
(** Run the static formulation auditor on the generated MILP before
    solving; the report lands in {!result.lint}. Enforcement is the
    caller's job: check {!Milp.Lint.failed} against the level. *)

val with_warm_start : Relalg.Plan.t option -> config -> config
(** [Some p] sets [Ws_plan p]; [None] restores the default [Ws_greedy].
    Kept for callers (the service scheduler) that think in terms of an
    optional cached plan. *)

val with_warm_start_policy : warm_start_policy -> config -> config

type trace_point = {
  tp_elapsed : float;
  tp_objective : float option;  (** incumbent MILP objective (approx. cost) *)
  tp_bound : float;  (** proven lower bound on the MILP objective *)
  tp_factor : float option;
  (** objective / bound — the guaranteed optimality factor the paper
      plots; [None] before the first incumbent *)
}

type provenance =
  [ `Milp_certified  (** MILP solution, independently certified *)
  | `Milp_uncertified  (** MILP solution that failed the certification audit *)
  | `Recovered of int  (** produced by recovery-ladder rung [n] after a numeric failure *)
  | `Fallback_dp  (** Selinger dynamic programming (exact, small queries) *)
  | `Fallback_heuristic  (** IKKBZ or greedy, when everything else failed *) ]
(** Where the returned plan came from. The optimizer never returns
    [plan = None] for a well-formed query: when the MILP path fails —
    numerically, by timeout, or because decoding broke — a classical
    planner supplies the plan and [provenance] says so. *)

val provenance_to_string : provenance -> string

type result = {
  plan : Relalg.Plan.t option;
  provenance : provenance option;  (** [None] only when [plan] is [None] *)
  certificate : Milp.Solver.certificate;  (** the solver's audit verdict *)
  true_cost : float option;  (** decoded plan's cost under the exact model *)
  objective : float option;  (** its MILP objective *)
  bound : float;
  status : Milp.Branch_bound.status;
  stopped : Milp.Branch_bound.stop_reason;
  (** why the solve ended: ran to completion, hit the time or node
      limit, or was cooperatively interrupted (SIGINT / cancel) — in the
      last three cases the plan is still the best *certified* incumbent *)
  resumed : bool;  (** the solve continued from an on-disk checkpoint *)
  trace : trace_point list;  (** chronological *)
  nodes : int;
  simplex_iters : int;  (** simplex iterations over every node LP of the final solve *)
  num_vars : int;
  num_constrs : int;
  elapsed : float;
  lint : Milp.Lint.report option;
      (** static audit of the generated formulation; [Some] iff the
          config enables {!with_lint} *)
  seed : Milp.Warm_start.seed option;
      (** provenance of the seeded initial incumbent: [None] on a cold
          start or when every candidate was rejected at certification;
          carried through checkpoint/resume *)
}

val guaranteed_factor : objective:float -> bound:float -> float
(** [objective / max bound eps]; [infinity] when the bound is not yet
    positive. *)

val optimize :
  ?config:config ->
  ?budget:Milp.Budget.t ->
  ?resume:bool ->
  ?on_progress:(trace_point -> unit) ->
  Relalg.Query.t ->
  result
(** [budget] shares a deadline and cancellation token with the caller —
    wrap the call in {!Milp.Budget.with_sigint} to turn Ctrl-C into a
    graceful stop; when absent a budget is created from the configured
    time limit. [resume] (default [false]) continues from the configured
    checkpoint when one is present and loadable — see
    {!Milp.Solver.solve}. After a cancellation the exact-DP fallback is
    skipped so the call returns promptly with a heuristic plan if the
    MILP produced none. Raises [Invalid_argument] for queries past
    {!max_monolithic_tables} — those must go through decomposition. *)

val exact_metric : Cost_enc.spec -> Relalg.Cost_model.metric
(** The exact cost metric a spec's plans should be judged by. *)
