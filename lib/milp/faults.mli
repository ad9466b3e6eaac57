(** Seeded fault injection for the MILP stack.

    Commercial solvers are hardened by decades of production failures;
    this module lets us manufacture those failures on demand so the
    resilience layer (certification, the recovery ladder, the optimizer's
    fallback rungs) can be exercised deterministically in tests.

    A {!plan} is installed globally ({!install} / {!clear}); the hooks
    below are called from {!Simplex} and {!Sparse_lu} at their natural
    failure points. Every hook first reads a single [bool ref], so the
    cost with no plan installed is one load and branch — effectively
    zero on the simplex's hot paths.

    All randomness comes from a splitmix-style generator seeded by the
    plan, so a given plan replays the identical fault sequence under a
    serial solve. The hooks are domain-safe: with the parallel branch &
    bound they fire concurrently from worker domains, and the generator
    and counters are guarded by a mutex — the injected fault *sites*
    then depend on domain interleaving, but counters stay exact and the
    process stays crash-free. *)

exception Injected_abort
(** Raised by service-layer code when {!request_aborts} fires — a
    deterministic stand-in for "this request's handler died mid-flight"
    that flight cleanup and the server's retry ladder must absorb. *)

type plan = {
  f_seed : int;
  f_pivot_reject : float;
  (** probability of vetoing an otherwise acceptable simplex pivot,
      forcing refactorization churn and eventual numerical failure *)
  f_refactor_fail_every : int;
  (** fail every k-th basis factorization with {!Sparse_lu.Singular}
      (reused factors do not count, see {!refactor_fails}); [0]
      disables *)
  f_perturb : float;
  (** relative magnitude of noise injected into ftran'd entering
      columns — simulates numeric drift of the basis inverse; [0.]
      disables *)
  f_early_timeout : float;
  (** probability, per deadline check, of pretending the clock ran out —
      simulates deadline pressure / clock skew; [0.] disables *)
  f_corrupt_objective : float;
  (** probability of replacing a returned LP objective value with NaN —
      simulates overflow in the objective accumulation; [0.] disables *)
  f_checkpoint_corrupt : float;
  (** probability of flipping bits in a checkpoint payload as it is
      written — simulates silent media corruption; the checksum must
      catch it at load; [0.] disables *)
  f_checkpoint_truncate : float;
  (** probability of truncating a checkpoint payload to half its length
      as it is written — simulates a crash mid-write that the atomic
      rename did not protect against; [0.] disables *)
  f_cancel_after_nodes : int;
  (** request cooperative cancellation after this many branch & bound
      node visits — simulates a user hitting Ctrl-C mid-search at a
      deterministic point; fires exactly once; [0] disables *)
  f_snapshot_corrupt : float;
  (** probability of flipping bits in a *service snapshot* payload (the
      plan-cache persistence path) as it is written; independent of
      [f_checkpoint_corrupt] so tests can damage one persistence path
      without the other; [0.] disables *)
  f_snapshot_truncate : float;
  (** probability of truncating a service snapshot payload to half its
      length mid-write — a crash the atomic rename did not cover; [0.]
      disables *)
  f_request_stall : float;
  (** seconds of injected stall per served request, applied inside the
      server's *request executor* (one worker, not the I/O loop) — a
      slow handler that must only occupy its own worker while other
      connections keep being served; [0.] disables *)
  f_abort_every : int;
  (** raise {!Injected_abort} out of every k-th guarded request handler
      (scheduler flights, server solve attempts) — exercises in-flight
      cleanup and the retry ladder; [0] disables *)
  f_warm_start_mangle : float;
  (** probability of corrupting a warm-start candidate assignment just
      before the branch & bound certifies it — simulates a stale cache
      entry or a buggy heuristic translation; the certification gate
      must reject it and fall back to a cold start; [0.] disables *)
  f_wedge_after : int;
  (** wedge the k-th polled request exactly once: {!request_wedge}
      returns [f_wedge_seconds] on that poll and the caller sleeps that
      long ignoring its budget — a solve stuck between cooperative
      cancellation checks, which only the server's watchdog can turn
      into an answer; [0] disables *)
  f_wedge_seconds : float;  (** how long the wedged request sleeps *)
  f_yield_every : int;
  (** schedule perturbation: make roughly every k-th {!yield_point} call
      spin on [Domain.cpu_relax] for a seed-dependent while. Yield
      points sit at the lock-shaped seams of the concurrent machinery
      (pool submit/drain, flight claim/publish, plan-cache touches,
      budget polls, response completion), so a seeded plan explores
      interleavings the unperturbed scheduler rarely produces — without
      changing any result a correctly synchronized path computes; [0]
      disables *)
  f_cluster_fail : float;
  (** probability of vetoing a cluster solve inside the decomposition
      driver ({!cluster_fails}) — the driver must degrade that cluster
      to its heuristic fallback plan and flag the stitched result,
      never lose the whole query; [0.] disables *)
}

val none : plan
(** Seed 0, every fault disabled. *)

val install : plan -> unit
(** Installs (replacing any previous plan) and resets the seeded
    generator and all counters. *)

val clear : unit -> unit

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan plan f] installs [plan], runs [f], and always {!clear}s —
    even when [f] raises — so a failing test cannot leak an active fault
    plan into later tests. *)

val is_enabled : unit -> bool

val installed : unit -> plan option

(** {2 Hooks} — called from the solver internals; each is a no-op
    returning the benign answer when no plan is installed. *)

val pivot_rejected : unit -> bool

val refactor_fails : unit -> bool
(** Polled by {!Sparse_lu.factorize} at the start of every real basis
    factorization. A warm solve handed its parent's factor
    ({!Simplex.result}[.factor]) skips its initial factorization, so
    that reuse neither polls nor counts toward [f_refactor_fail_every]:
    the fault lands on the k-th factorization actually computed. *)

val perturb_vector : float array -> unit
val early_timeout : unit -> bool
val corrupt_objective : float -> float

val cancel_requested : unit -> bool
(** Polled once per branch & bound node; [true] exactly once, after
    [f_cancel_after_nodes] polls. *)

val mangle_checkpoint : bytes -> bytes
(** Applied to the serialized checkpoint payload just before it hits the
    disk (after the checksum over the honest payload is computed), so
    the injected damage is exactly what {!Checkpoint.load}'s
    verification must detect. *)

val mangle_snapshot : bytes -> bytes
(** Same damage engine as {!mangle_checkpoint}, but driven by the
    [f_snapshot_*] knobs — applied to service-layer snapshots (the plan
    cache's persistence envelope) instead of solver checkpoints. *)

val request_stall : unit -> float
(** Seconds a request executor should stall before handling its current
    request ([0.] when disabled) — the slow-handler fault point. The
    stall burns one worker, never the I/O loop: with more than one
    worker the other connections keep being answered, which is the
    regression the server's concurrency tests pin down. *)

val request_wedge : unit -> float
(** Seconds the current request should sleep *ignoring its budget*
    ([0.] almost always): fires exactly once, on the [f_wedge_after]-th
    poll. The watchdog, not the request's own deadline, must convert a
    wedged request into an honest error/degraded response. *)

val request_aborts : unit -> bool
(** Polled once per guarded request handler; [true] on every
    [f_abort_every]-th poll. Callers raise {!Injected_abort}. *)

val cluster_fails : unit -> bool
(** Polled once per cluster solve of a decomposed query; [true] with
    probability [f_cluster_fail]. The decomposition driver treats a
    firing as that cluster's solve having died: the cluster degrades to
    its heuristic fallback plan and the stitched result carries the
    degraded flag. *)

val mangle_warm_start : float array -> float array
(** Applied to a warm-start candidate assignment just before the branch
    & bound certifies it; when the fault fires, returns a damaged copy
    (one coordinate bumped off scale, one binary flipped) that the
    certification gate must reject. Returns the array unchanged when
    disabled. *)

val yield_point : unit -> unit
(** The schedule-perturbation fault point: a no-op (one load and branch)
    unless a plan with [f_yield_every > 0] is installed, in which case a
    seed-and-call-count-dependent subset of calls spins on
    [Domain.cpu_relax] before returning. Unlike every other hook this
    one never touches the plan mutex — serializing the callers would
    defeat the perturbation. *)

val yields_fired : unit -> int
(** How many {!yield_point} calls actually paused since {!install} —
    lets the race harness assert a perturbed run really was perturbed. *)

val fired : unit -> (string * int) list
(** Counters of faults actually injected since {!install}, keyed by hook
    name — lets tests assert a plan really exercised the target path.
    Includes a ["yield"] row when {!yield_point} fired. *)
