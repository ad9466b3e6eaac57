(** Sparse LU factorization of a simplex basis (left-looking, partial
    pivoting, Gilbert–Peierls style without the symbolic DFS). Each
    column's update is driven by an ascending-step worklist of the
    earlier steps its pattern reaches, so the work is proportional to
    the actual update flops rather than to the dimension.

    Conventions match {!Dense}: the basis matrix has one column per basis
    position; [solve] maps a right-hand side indexed by constraint row to
    a solution indexed by basis position, [solve_transposed] the reverse.
    Factorization cost is roughly proportional to fill-in, which for the
    join-ordering encodings (3-5 nonzeros per column) is far below the
    dense O(m^3).

    L, U and the permutations live in one int and one float array with
    fixed offsets. All mutable work state lives in a caller-owned
    {!scratch} and in the [work] vector passed to the solves. A factor
    built with a scratch shares that scratch's storage; a {!copy} owns
    its storage and is never mutated, so it may be kept and shared
    read-only across domains. *)

type t

exception Singular of int
(** No acceptable pivot at the given elimination step. *)

type scratch
(** Reusable work arrays for {!factorize}, grown on demand. A scratch
    must not be used by two factorizations at once. *)

val scratch : unit -> scratch

val factorize :
  ?pivot_tol:float ->
  ?scratch:scratch ->
  dim:int ->
  col_start:int array ->
  row_idx:int array ->
  value:float array ->
  int array ->
  t
(** [factorize ~dim ~col_start ~row_idx ~value basis] factorizes the
    matrix whose k-th column is column [basis.(k)] of the compressed
    sparse column matrix [(col_start, row_idx, value)] (the layout of
    {!Stdform.t}), over rows [0 .. dim-1]. With [scratch] the factor is
    stored in the scratch and is valid until the next successful
    factorization with it (one that raises {!Singular} leaves the
    previous factor intact); without, the work arrays are allocated for
    this call and the factor owns them. *)

val copy : t -> t
(** A compact copy that owns its storage. *)

val factorizes : t -> int array -> bool
(** [factorizes lu basis]: [lu] is the factorization of exactly [basis]
    (same columns in the same positions). *)

val dim : t -> int

val solve : t -> work:float array -> float array -> unit
(** [solve lu ~work r] overwrites [r] (indexed by row) with the solution
    [y] (indexed by basis position) of [B y = r]. [work] is scratch of
    length at least [dim lu]; its contents are overwritten. *)

val solve_transposed : t -> work:float array -> float array -> unit
(** [solve_transposed lu ~work r] overwrites [r] (indexed by basis
    position) with the solution [y] (indexed by row) of [B^T y = r],
    using [work] as in {!solve}. *)

val fill_in : t -> int
(** Total stored nonzeros in L and U, for diagnostics. *)
