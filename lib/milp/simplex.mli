(** Bounded-variable revised primal simplex.

    Solves [minimize c.x  s.t.  A x = b, l <= x <= u] given in
    {!Stdform.t} layout, with per-call bound overrides so branch & bound
    can tighten variable bounds without rebuilding the matrix.

    The basis inverse is kept as an LU factorization (sparse by default,
    {!Sparse_lu}; dense as the reference backend) plus a product-form
    eta file, refactorized periodically. Phase 1 drives the sum of
    primal infeasibilities of basic variables to zero starting from the
    all-logical basis (or a caller-provided warm basis); pricing is
    Devex with a Bland fallback against cycling, and the ratio test is
    a two-pass Harris test.

    The iteration loop allocates no vectors: they, the eta file and the
    factorization scratch live in a workspace owned by the calling
    domain and reused by every solve that runs there. *)

type vstat =
  | SBasic
  | SLower  (** nonbasic at lower bound *)
  | SUpper  (** nonbasic at upper bound *)
  | SFree  (** nonbasic free variable, held at value 0 *)

type basis_backend =
  | Dense_backend  (** dense LU; reference implementation *)
  | Sparse_backend  (** sparse LU; the default — encodings are very sparse *)

type params = {
  pivot_tol : float;  (** smallest acceptable pivot magnitude (default 1e-8) *)
  refactor_every : int;  (** eta-file length triggering refactorization *)
  backend : basis_backend;
  budget : Budget.t option;
  (** budget polled every 64 iterations; when exhausted (deadline passed
      or cancellation requested) the solve returns [Iteration_limit];
      [None] = no limit (chaos early-timeout injection still applies) *)
  force_bland : bool;
  (** use Bland's smallest-index pricing from the first iteration instead
      of only as an anti-cycling fallback — slow but maximally robust;
      the recovery ladder's last-resort pricing mode *)
}

val default_params : params

val feas_tol : float
(** Primal feasibility tolerance, 1e-7.
    The reduced-cost tolerance is 1e-9, relative to the cost, and a solve
    stops with [Iteration_limit] after [20000 + 100 * nrows] iterations. *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit | Numerical_failure

type factor
(** An immutable sparse factorization of one basis of one {!Stdform.t}.
    It may be shared read-only between domains. *)

type result = {
  status : status;
  objective : float;  (** [c.x] of the returned point (minimization sense) *)
  x : float array;  (** length [ncols]; structural then logical values *)
  iters : int;
  basis : int array;  (** basic variable per row, for warm starts *)
  vstatus : vstat array;  (** per-variable status, for warm starts *)
  factor : factor option;
  (** the factorization of [basis], on an [Optimal] result of the
      sparse backend whose eta file is empty (the usual case: optimality
      is confirmed on a fresh factorization); pass it with [basis] as
      [~factor] to skip the warm solve's initial factorization *)
}

val solve :
  ?params:params ->
  ?warm:int array * vstat array ->
  ?factor:factor ->
  Stdform.t ->
  lb:float array ->
  ub:float array ->
  result
(** [solve sf ~lb ~ub] solves with the given bounds (length [ncols];
    logical bounds must match [sf]'s constraint senses). The arrays are
    not mutated. A singular warm basis silently falls back to the cold
    all-logical start. [factor] is used only when it factorizes exactly
    the warm basis of [sf] and [params] select the sparse backend, and
    is otherwise ignored; since a factorization is a pure function of
    the basis, the result is the same with or without it. *)

val tableau_rows : Stdform.t -> result -> int list -> (int * float array * float) list
(** [tableau_rows sf res positions] recomputes, from the basis returned in
    [res], the simplex tableau rows at the given basic positions: for each
    position [r], the coefficients over all [ncols] columns of [B^-1 A]
    and the basic variable's value. The basis is refactorized once for the
    whole batch. Used by Gomory cut separation. Returns [] when the basis
    is numerically singular. *)
