type t = {
  nrows : int;
  nstruct : int;
  ncols : int;
  col_start : int array;
  row_idx : int array;
  value : float array;
  lb : float array;
  ub : float array;
  cost : float array;
  rhs : float array;
  integer : bool array;
  obj_const : float;
  maximize : bool;
  row_scale : float array;
  col_scale : float array;
}

(* Geometric-mean equilibration, rounded to powers of two. Join-ordering
   encodings mix coefficients from 1e-4 (log-selectivities) to 1e29
   (threshold staircase deltas); without scaling the simplex basis turns
   numerically singular within a few pivots. The simplex works entirely
   in scaled space; bounds and solutions cross the boundary in
   {!Simplex.solve}. *)
let equilibrate ~nrows ~nstruct ~ncols ~col_start ~row_idx ~value =
  let row_scale = Array.make nrows 1. in
  let col_scale = Array.make ncols 1. in
  let pow2 s = if s <= 0. || not (Float.is_finite s) then 1. else 2. ** Float.round (log s /. log 2.) in
  for _pass = 1 to 3 do
    (* Row pass: geometric mean of current scaled magnitudes per row. *)
    let log_sum = Array.make nrows 0. and count = Array.make nrows 0 in
    for j = 0 to nstruct - 1 do
      for k = col_start.(j) to col_start.(j + 1) - 1 do
        let i = row_idx.(k) in
        let v = abs_float (value.(k) *. row_scale.(i) *. col_scale.(j)) in
        if v > 0. then begin
          log_sum.(i) <- log_sum.(i) +. log v;
          count.(i) <- count.(i) + 1
        end
      done
    done;
    for i = 0 to nrows - 1 do
      if count.(i) > 0 then begin
        let gm = exp (log_sum.(i) /. float_of_int count.(i)) in
        row_scale.(i) <- pow2 (row_scale.(i) /. gm)
      end
    done;
    (* Column pass. *)
    for j = 0 to nstruct - 1 do
      let log_sum = ref 0. and count = ref 0 in
      for k = col_start.(j) to col_start.(j + 1) - 1 do
        let v = abs_float (value.(k) *. row_scale.(row_idx.(k)) *. col_scale.(j)) in
        if v > 0. then begin
          log_sum := !log_sum +. log v;
          incr count
        end
      done;
      if !count > 0 then begin
        let gm = exp (!log_sum /. float_of_int !count) in
        col_scale.(j) <- pow2 (col_scale.(j) /. gm)
      end
    done
  done;
  (* Clamp and give each logical column the inverse of its row scale so
     slack coefficients stay exactly 1. *)
  let clamp s = max (2. ** -40.) (min (2. ** 40.) s) in
  for i = 0 to nrows - 1 do
    row_scale.(i) <- clamp row_scale.(i)
  done;
  for j = 0 to nstruct - 1 do
    col_scale.(j) <- clamp col_scale.(j)
  done;
  for i = 0 to nrows - 1 do
    col_scale.(nstruct + i) <- 1. /. row_scale.(i)
  done;
  (row_scale, col_scale)

let of_problem p =
  let nstruct = Problem.num_vars p in
  let nrows = Problem.num_constrs p in
  let ncols = nstruct + nrows in
  let lb = Array.make ncols 0. and ub = Array.make ncols 0. in
  let cost = Array.make ncols 0. in
  let integer = Array.make ncols false in
  let rhs = Array.make nrows 0. in
  (* Accumulate structural columns as reversed (row, coeff) lists. *)
  let col_acc = Array.make nstruct [] in
  Problem.iter_vars
    (fun v info ->
      lb.(v) <- info.Problem.v_lb;
      ub.(v) <- info.Problem.v_ub;
      integer.(v) <-
        (match info.Problem.v_kind with
        | Problem.Integer | Problem.Binary -> true
        | Problem.Continuous -> false))
    p;
  Problem.iter_constrs
    (fun i c ->
      rhs.(i) <- c.Problem.c_rhs;
      List.iter
        (fun (v, coeff) -> col_acc.(v) <- (i, coeff) :: col_acc.(v))
        (Linexpr.terms c.Problem.c_expr);
      (* Logical variable bounds encode the constraint sense. *)
      let s = nstruct + i in
      (match c.Problem.c_sense with
      | Problem.Le ->
        lb.(s) <- 0.;
        ub.(s) <- infinity
      | Problem.Ge ->
        lb.(s) <- neg_infinity;
        ub.(s) <- 0.
      | Problem.Eq ->
        lb.(s) <- 0.;
        ub.(s) <- 0.))
    p;
  (* Compressed sparse columns: structural columns in constraint order,
     then one unit entry per logical. *)
  let col_start = Array.make (ncols + 1) 0 in
  for j = 0 to ncols - 1 do
    col_start.(j + 1) <- col_start.(j) + (if j < nstruct then List.length col_acc.(j) else 1)
  done;
  let nnz = col_start.(ncols) in
  let row_idx = Array.make nnz 0 and value = Array.make nnz 0. in
  for j = 0 to nstruct - 1 do
    (* [col_acc.(j)] is reversed: fill the column from its end. *)
    List.iteri
      (fun n (i, a) ->
        let k = col_start.(j + 1) - 1 - n in
        row_idx.(k) <- i;
        value.(k) <- a)
      col_acc.(j)
  done;
  for i = 0 to nrows - 1 do
    let k = col_start.(nstruct + i) in
    row_idx.(k) <- i;
    value.(k) <- 1.
  done;
  let sense, obj = Problem.objective p in
  let maximize = sense = Problem.Maximize in
  let sign = if maximize then -1. else 1. in
  List.iter (fun (v, c) -> cost.(v) <- sign *. c) (Linexpr.terms obj);
  (* Scale the matrix, right-hand side and costs; bounds stay in user
     space (see the type's documentation). *)
  let row_scale, col_scale = equilibrate ~nrows ~nstruct ~ncols ~col_start ~row_idx ~value in
  for j = 0 to ncols - 1 do
    for k = col_start.(j) to col_start.(j + 1) - 1 do
      value.(k) <- value.(k) *. row_scale.(row_idx.(k)) *. col_scale.(j)
    done
  done;
  let rhs = Array.mapi (fun i b -> b *. row_scale.(i)) rhs in
  let cost = Array.mapi (fun j c -> c *. col_scale.(j)) cost in
  {
    nrows;
    nstruct;
    ncols;
    col_start;
    row_idx;
    value;
    lb;
    ub;
    cost;
    rhs;
    integer;
    obj_const = Linexpr.constant obj;
    maximize;
    row_scale;
    col_scale;
  }

let bounds t = (Array.copy t.lb, Array.copy t.ub)

let coeff_range t =
  let lo = ref infinity and hi = ref 0. in
  for k = 0 to t.col_start.(t.nstruct) - 1 do
    let v = abs_float t.value.(k) in
    if v > 0. then begin
      if v < !lo then lo := v;
      if v > !hi then hi := v
    end
  done;
  if !hi = 0. then (0., 0.) else (!lo, !hi)

let user_objective t z = if t.maximize then -.z +. t.obj_const else z +. t.obj_const

let internal_of_user t v = if t.maximize then -.(v -. t.obj_const) else v -. t.obj_const
