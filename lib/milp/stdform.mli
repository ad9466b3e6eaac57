(** Conversion of a {!Problem.t} to computational standard form

    {v minimize c.x   subject to   A x = b,   l <= x <= u v}

    Each constraint row [i] receives one logical (slack) variable [s_i]
    appended after the structural variables, with bounds encoding the
    original sense: [Le] gives [s_i in [0, +inf)], [Ge] gives
    [s_i in (-inf, 0]] and [Eq] gives [s_i = 0]. A [Maximize] objective is
    negated so the simplex always minimizes; {!user_objective} undoes the
    transformation. *)

type t = {
  nrows : int;
  nstruct : int;  (** structural (user) variable count *)
  ncols : int;  (** [nstruct + nrows] *)
  col_start : int array;
  (** compressed sparse columns, length [ncols + 1]: the nonzeros of
      column [j] are entries [col_start.(j)] to [col_start.(j+1) - 1] of
      [row_idx] / [value], in ascending constraint order *)
  row_idx : int array;  (** constraint row of each stored nonzero *)
  value : float array;  (** coefficient of each stored nonzero *)
  lb : float array;  (** length [ncols] *)
  ub : float array;
  cost : float array;  (** minimization costs, length [ncols] (zero on logicals) *)
  rhs : float array;  (** length [nrows] *)
  integer : bool array;  (** length [ncols]; logicals are always [false] *)
  obj_const : float;
  maximize : bool;  (** original problem sense *)
  row_scale : float array;
  col_scale : float array;
  (** equilibration scales: the stored matrix is [R A C] with
      [R = diag row_scale], [C = diag col_scale], and [rhs]/[cost] are
      scaled to match. [lb]/[ub] remain in user space; the simplex maps
      bounds into scaled space on entry ([x' = x / col_scale]) and
      solutions back on exit, so every other module sees user-space
      values. *)
}

val of_problem : Problem.t -> t

val bounds : t -> float array * float array
(** Fresh copies of [(lb, ub)], suitable for mutation by branch & bound. *)

val coeff_range : t -> float * float
(** [(min, max)] absolute nonzero coefficient magnitudes of the stored
    (equilibrated) structural matrix — the dynamic range the simplex
    actually faces after scaling; [(0., 0.)] for an empty matrix. Used by
    {!Lint} to report conditioning before and after equilibration. *)

val user_objective : t -> float -> float
(** [user_objective t z] maps an internal minimization value [z = c.x] back
    to the user's objective (restores sign and constant). *)

val internal_of_user : t -> float -> float
(** Inverse of {!user_objective}. *)
