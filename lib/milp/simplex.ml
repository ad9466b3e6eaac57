type vstat = SBasic | SLower | SUpper | SFree

type basis_backend = Dense_backend | Sparse_backend

type params = {
  pivot_tol : float;
  refactor_every : int;
  backend : basis_backend;
  budget : Budget.t option;
  force_bland : bool;  (* Bland-only pricing from the first iteration *)
}

let default_params =
  {
    pivot_tol = 1e-8;
    refactor_every = 40;
    backend = Sparse_backend;
    budget = None;
    force_bland = false;
  }

let feas_tol = 1e-7

let dual_tol = 1e-9

type status = Optimal | Infeasible | Unbounded | Iteration_limit | Numerical_failure

(* Basis factorization backends share one interface: [solve] maps a
   row-indexed right-hand side to position-indexed values, and
   [solve_transposed] the reverse (see Sparse_lu). *)
type lu = Dense_f of Dense.lu | Sparse_f of Sparse_lu.t

(* A sparse factorization (an owned {!Sparse_lu.copy}) over the matrix
   of [f_sf]. Immutable, so it can be handed to another solve, on any
   domain, that starts from the same basis of the same matrix. Dense
   factors are not handed on: the dense backend is the reference and
   last-resort path, and its O(m^2) factors would make a table of them
   large. *)
type factor = { f_sf : Stdform.t; f_lu : Sparse_lu.t }

type result = {
  status : status;
  objective : float;
  x : float array;
  iters : int;
  basis : int array;
  vstatus : vstat array;
  factor : factor option;
}

exception Factor_singular of int

(* Per-domain scratch, reused by every solve that runs on the domain:
   bounds, basic values and Devex weights ([lb], [ub], [devex] sized to
   the column count, [xb] to the row count), the dual, entering-column
   and pivot-row vectors, the LU solves' work vector, the factorization
   scratch (which also stores the current sparse factor), and the eta
   file. The eta file is product-form updates in application order: eta
   [e] replaced basis row [e_row.(e)] with pivot [e_pivot.(e)], and its
   other nonzeros are entries [e_start.(e)] to [e_start.(e+1) - 1] of
   [e_idx] / [e_val], in descending row order. Nothing here outlives the
   solve that fills it: results copy out. *)
type work = {
  mutable busy : bool;
  mutable lb : float array;
  mutable ub : float array;
  mutable devex : float array;
  mutable xb : float array;
  mutable y : float array;
  mutable w : float array;
  mutable rho : float array;
  mutable lu_work : float array;
  cell : float array; (* [0]: row-candidate ratio, [1]: ratio-test step *)
  lu_scratch : Sparse_lu.scratch;
  mutable e_row : int array;
  mutable e_pivot : float array;
  mutable e_start : int array;
  mutable e_idx : int array;
  mutable e_val : float array;
}

let new_work () =
  {
    busy = false;
    lb = [||];
    ub = [||];
    devex = [||];
    xb = [||];
    y = [||];
    w = [||];
    rho = [||];
    lu_work = [||];
    cell = Array.make 2 0.;
    lu_scratch = Sparse_lu.scratch ();
    e_row = [||];
    e_pivot = [||];
    e_start = [| 0 |];
    e_idx = [||];
    e_val = [||];
  }

let work_key = Domain.DLS.new_key new_work

(* The domain's workspace sized for [sf], or a private one if a solve is
   already running on this domain. *)
let acquire_work sf =
  let ws =
    let ws = Domain.DLS.get work_key in
    if ws.busy then new_work () else ws
  in
  ws.busy <- true;
  let sized a n = if Array.length a = n then a else Array.make n 0. in
  let m = sf.Stdform.nrows and n = sf.Stdform.ncols in
  ws.lb <- sized ws.lb n;
  ws.ub <- sized ws.ub n;
  ws.devex <- sized ws.devex n;
  ws.xb <- sized ws.xb m;
  ws.y <- sized ws.y m;
  ws.w <- sized ws.w m;
  ws.rho <- sized ws.rho m;
  ws.lu_work <- sized ws.lu_work m;
  ws

(* How the ratio test ended: no blocking row (an unbounded ray), the
   entering variable reaching its own opposite bound, or a leaving row
   ([rt_row], landing on [rt_land]). The step is in [cell.(1)]. *)
type block = No_block | Self_flip | Leaving

type state = {
  sf : Stdform.t;
  p : params;
  lb : float array;
  ub : float array;
  basis : int array; (* row -> variable *)
  stat : vstat array; (* variable -> status *)
  xb : float array; (* row -> value of basic variable *)
  mutable factor : lu;
  mutable n_etas : int;
  mutable iters : int;
  mutable degenerate_streak : int;
  mutable repaired : bool; (* a singular basis was replaced mid-phase *)
  devex : float array; (* Devex reference weights, per variable *)
  ws : work;
  mutable enter_up : bool; (* direction chosen by [choose_entering] *)
  mutable rt_block : block;
  mutable rt_row : int;
  mutable rt_land : vstat;
}

(* Placeholder until the first factorization of a state. *)
let no_lu = Dense_f (Dense.lu_factorize [||])

(* [max a b] on floats, spelled out: Stdlib's polymorphic [max] boxes. *)
let[@inline] fmax a b = if a >= b then a else b

(* ------------------------------------------------------------------ *)
(* Basis factorization                                                  *)
(* ------------------------------------------------------------------ *)

let build_basis_matrix st =
  let sf = st.sf in
  let m = sf.Stdform.nrows in
  let mat = Array.make_matrix m m 0. in
  for r = 0 to m - 1 do
    let j = st.basis.(r) in
    for k = sf.Stdform.col_start.(j) to sf.Stdform.col_start.(j + 1) - 1 do
      mat.(sf.Stdform.row_idx.(k)).(r) <- sf.Stdform.value.(k)
    done
  done;
  mat

let[@inline] nb_value st j =
  match st.stat.(j) with
  | SLower -> st.lb.(j)
  | SUpper -> st.ub.(j)
  | SFree -> 0.
  | SBasic -> assert false

(* FTRAN: y := B^-1 y, using base LU then etas in application order. *)
let ftran st y =
  (match st.factor with
  | Dense_f lu -> Dense.lu_solve lu y
  | Sparse_f lu -> Sparse_lu.solve lu ~work:st.ws.lu_work y);
  let ws = st.ws in
  for e = 0 to st.n_etas - 1 do
    let r = ws.e_row.(e) in
    let yr = y.(r) /. ws.e_pivot.(e) in
    if yr <> 0. then
      for k = ws.e_start.(e) to ws.e_start.(e + 1) - 1 do
        y.(ws.e_idx.(k)) <- y.(ws.e_idx.(k)) -. (ws.e_val.(k) *. yr)
      done;
    y.(r) <- yr
  done

(* BTRAN: y := B^-T y, etas in reverse application order then base LU. *)
let btran st y =
  let ws = st.ws in
  for e = st.n_etas - 1 downto 0 do
    let r = ws.e_row.(e) in
    let acc = ref y.(r) in
    for k = ws.e_start.(e) to ws.e_start.(e + 1) - 1 do
      acc := !acc -. (ws.e_val.(k) *. y.(ws.e_idx.(k)))
    done;
    y.(r) <- !acc /. ws.e_pivot.(e)
  done;
  match st.factor with
  | Dense_f lu -> Dense.lu_solve_transposed lu y
  | Sparse_f lu -> Sparse_lu.solve_transposed lu ~work:ws.lu_work y

(* Recompute basic values from scratch: xb = B^-1 (b - N x_N). *)
let recompute_xb st =
  let sf = st.sf in
  let r = st.xb in
  Array.blit sf.Stdform.rhs 0 r 0 sf.Stdform.nrows;
  for j = 0 to sf.Stdform.ncols - 1 do
    if st.stat.(j) <> SBasic then begin
      let v = nb_value st j in
      if v <> 0. then
        for k = sf.Stdform.col_start.(j) to sf.Stdform.col_start.(j + 1) - 1 do
          r.(sf.Stdform.row_idx.(k)) <- r.(sf.Stdform.row_idx.(k)) -. (sf.Stdform.value.(k) *. v)
        done
    end
  done;
  ftran st r

let factorize_basis st =
  match st.p.backend with
  | Dense_backend -> (
    match Dense.lu_factorize (build_basis_matrix st) with
    | lu -> Dense_f lu
    | exception Dense.Singular k -> raise (Factor_singular k))
  | Sparse_backend -> (
    let sf = st.sf in
    match
      Sparse_lu.factorize ~scratch:st.ws.lu_scratch ~dim:sf.Stdform.nrows
        ~col_start:sf.Stdform.col_start ~row_idx:sf.Stdform.row_idx ~value:sf.Stdform.value
        st.basis
    with
    | lu -> Sparse_f lu
    | exception Sparse_lu.Singular k -> raise (Factor_singular k))

(* Reset to the all-logical (slack) basis: the repair of last resort when
   the working basis has drifted into numerical singularity. Former basic
   variables are parked at a bound; phase 1 restores feasibility. *)
let reset_to_slack_basis st =
  for j = 0 to st.sf.Stdform.ncols - 1 do
    if st.stat.(j) = SBasic then
      st.stat.(j) <-
        (if st.lb.(j) > neg_infinity then SLower
         else if st.ub.(j) < infinity then SUpper
         else SFree)
  done;
  for i = 0 to st.sf.Stdform.nrows - 1 do
    st.basis.(i) <- st.sf.Stdform.nstruct + i;
    st.stat.(st.basis.(i)) <- SBasic
  done;
  st.repaired <- true

let refactorize st =
  st.n_etas <- 0;
  (match factorize_basis st with
  | f -> st.factor <- f
  | exception Factor_singular _ ->
    reset_to_slack_basis st;
    st.factor <- factorize_basis st);
  recompute_xb st

(* Append the eta of a pivot on row [r] with ftran'd entering column
   [w]: its nonzeros off the pivot row, in descending row order. *)
let push_eta st r w =
  let ws = st.ws in
  let m = st.sf.Stdform.nrows in
  let e = st.n_etas in
  ws.e_row <- Vecbuf.reserve_ints ws.e_row ~used:e (e + 1);
  ws.e_pivot <- Vecbuf.reserve_floats ws.e_pivot ~used:e (e + 1);
  ws.e_start <- Vecbuf.reserve_ints ws.e_start ~used:(e + 1) (e + 2);
  let base = ws.e_start.(e) in
  ws.e_idx <- Vecbuf.reserve_ints ws.e_idx ~used:base (base + m);
  ws.e_val <- Vecbuf.reserve_floats ws.e_val ~used:base (base + m);
  let nz = ref base in
  for i = m - 1 downto 0 do
    let v = w.(i) in
    if i <> r && abs_float v > 1e-13 then begin
      ws.e_idx.(!nz) <- i;
      ws.e_val.(!nz) <- v;
      incr nz
    end
  done;
  ws.e_row.(e) <- r;
  ws.e_pivot.(e) <- w.(r);
  ws.e_start.(e + 1) <- !nz;
  st.n_etas <- e + 1;
  if st.n_etas >= st.p.refactor_every then refactorize st

(* [w] := column [q] of the matrix, ftran'd. *)
let entering_column st q =
  let sf = st.sf in
  let w = st.ws.w in
  Array.fill w 0 sf.Stdform.nrows 0.;
  for k = sf.Stdform.col_start.(q) to sf.Stdform.col_start.(q + 1) - 1 do
    w.(sf.Stdform.row_idx.(k)) <- sf.Stdform.value.(k)
  done;
  ftran st w;
  w

(* [rho] := row [r] of B^-1. *)
let pivot_row st r =
  let rho = st.ws.rho in
  Array.fill rho 0 st.sf.Stdform.nrows 0.;
  rho.(r) <- 1.;
  btran st rho;
  rho

(* ------------------------------------------------------------------ *)
(* Pricing                                                              *)
(* ------------------------------------------------------------------ *)

(* Entering-variable choice: Devex pricing (d_j^2 over the reference
   weight) with a Bland fallback (smallest index) against cycling. With
   all weights at 1 this degenerates to Dantzig. Returns the entering
   column, or -1 when no column prices out; the direction is left in
   [enter_up].

   [obj_scale] participates in the dual tolerance: a reduced cost
   vanishingly small relative to the incumbent objective cannot produce a
   meaningful improvement, only an epsilon-crawl across a degenerate
   face. *)
let choose_entering st y ~phase1 ~obj_scale ~bland =
  let sf = st.sf in
  let col_start = sf.Stdform.col_start and row_idx = sf.Stdform.row_idx in
  let value = sf.Stdform.value in
  let best = ref (-1) and best_up = ref true and best_score = ref 0. in
  (* Bland takes the first candidate; the rest of the scan is skipped. *)
  let taken = ref false in
  for jj = 0 to sf.Stdform.ncols - 1 do
    let s = st.stat.(jj) in
    if (not !taken) && s <> SBasic && not (s <> SFree && st.ub.(jj) -. st.lb.(jj) <= 0.) then begin
      let cost = if phase1 then 0. else sf.Stdform.cost.(jj) in
      let acc = ref cost in
      for k = col_start.(jj) to col_start.(jj + 1) - 1 do
        acc := !acc -. (value.(k) *. y.(row_idx.(k)))
      done;
      let d = !acc in
      (* Relative dual tolerance: with objective coefficients spanning
         many orders of magnitude, chasing absolutely-tiny reduced costs
         on huge-cost columns churns forever for a relatively
         meaningless improvement. *)
      let tol = dual_tol *. (1. +. abs_float cost +. (1e-4 *. obj_scale)) in
      (* 1: increase, -1: decrease, 0: does not price out. *)
      let dir =
        match s with
        | SLower -> if d < -.tol then 1 else 0
        | SUpper -> if d > tol then -1 else 0
        | SFree -> if d < -.tol then 1 else if d > tol then -1 else 0
        | SBasic -> 0
      in
      if dir <> 0 then
        if bland then begin
          best := jj;
          best_up := dir > 0;
          taken := true
        end
        else begin
          let score = d *. d /. st.devex.(jj) in
          if !best < 0 || score > !best_score then begin
            best := jj;
            best_up := dir > 0;
            best_score := score
          end
        end
    end
  done;
  st.enter_up <- !best_up;
  !best

(* ------------------------------------------------------------------ *)
(* Ratio test (two-pass Harris)                                         *)
(* ------------------------------------------------------------------ *)

(* Per-row blocking candidate for a step of the entering variable in
   direction [dir]: the strict ratio at which basic row [i] reaches a
   bound, left in [cell.(0)], and the bound it lands on ([SBasic] when
   the row does not block). The rate of change of the basic value is
   [-dir * w.(i)]. Phase 1 treats basics outside their bounds
   specially: an infeasible basic blocks when it reaches its violated
   bound, while one moving deeper into infeasibility never blocks (the
   phase-1 objective gradient accounts for it). *)
let row_candidate st ~phase1 w dir i =
  let delta = -.dir *. w.(i) in
  let bi = st.basis.(i) in
  let x = st.xb.(i) in
  let cell = st.ws.cell in
  if phase1 && x < st.lb.(bi) -. feas_tol then
    if delta > 0. then begin
      cell.(0) <- (st.lb.(bi) -. x) /. delta;
      SLower
    end
    else SBasic
  else if phase1 && x > st.ub.(bi) +. feas_tol then
    if delta < 0. then begin
      cell.(0) <- (st.ub.(bi) -. x) /. delta;
      SUpper
    end
    else SBasic
  else if delta > 0. then
    if st.ub.(bi) < infinity then begin
      cell.(0) <- (st.ub.(bi) -. x) /. delta;
      SUpper
    end
    else SBasic
  else if st.lb.(bi) > neg_infinity then begin
    cell.(0) <- (st.lb.(bi) -. x) /. delta;
    SLower
  end
  else SBasic

let block st kind ~row ~land_on step =
  st.rt_block <- kind;
  st.rt_row <- row;
  st.rt_land <- land_on;
  st.ws.cell.(1) <- step

(* Harris two-pass ratio test. Pass 1 finds the smallest ratio with
   bounds relaxed by [feas_tol]; pass 2 picks, among rows whose strict
   ratio does not exceed that relaxed minimum, the one with the largest
   pivot magnitude — the standard cure for the tiny-pivot degeneracy that
   otherwise collapses the basis conditioning. Leaves the (clamped
   non-negative) step and the blocking event in the state. *)
let ratio_test st ~phase1 ~bland w dir q =
  let m = st.sf.Stdform.nrows in
  let pivot_tol = st.p.pivot_tol in
  let cell = st.ws.cell in
  let self_range = st.ub.(q) -. st.lb.(q) in
  (* Pass 1: smallest ratio. Harris mode relaxes each bound by feas_tol
     so pass 2 can pick a large pivot among near-ties; Bland mode needs
     the strict minimum for its anti-cycling guarantee. *)
  let t_limit = ref infinity in
  for i = 0 to m - 1 do
    let delta = -.dir *. w.(i) in
    if abs_float delta > pivot_tol && row_candidate st ~phase1 w dir i <> SBasic then begin
      let t = cell.(0) in
      let tr = if bland then fmax 0. t else t +. (feas_tol /. abs_float delta) in
      if tr < !t_limit then t_limit := tr
    end
  done;
  let t_limit = !t_limit in
  if t_limit = infinity then begin
    (* Before declaring an unbounded ray, make sure no sub-threshold
       coefficient would eventually block: those rows are numerically
       unusable as pivots but they do bound the step. *)
    if self_range < infinity then block st Self_flip ~row:(-1) ~land_on:SBasic self_range
    else begin
      let truly_free = ref true in
      for i = 0 to m - 1 do
        let delta = -.dir *. w.(i) in
        if abs_float delta > 1e-12 && abs_float delta <= pivot_tol
           && row_candidate st ~phase1 w dir i <> SBasic
        then truly_free := false
      done;
      if !truly_free then block st No_block ~row:(-1) ~land_on:SBasic infinity
      else begin
        (* A blocked step on the largest sub-threshold row, rather than
           a false unbounded ray. *)
        let best = ref (-1) and mag = ref 0. in
        for i = 0 to m - 1 do
          let delta = -.dir *. w.(i) in
          if abs_float delta > !mag && abs_float delta <= pivot_tol
             && row_candidate st ~phase1 w dir i <> SBasic
          then begin
            best := i;
            mag := abs_float delta
          end
        done;
        match row_candidate st ~phase1 w dir !best with
        | SBasic -> block st No_block ~row:(-1) ~land_on:SBasic infinity
        | land_on -> block st Leaving ~row:!best ~land_on (fmax 0. cell.(0))
      end
    end
  end
  else begin
    (* Pass 2: Harris picks the largest pivot within the relaxed window;
       Bland picks the smallest basis-variable index at the strict
       minimum (required by the anti-cycling theorem). *)
    let chosen = ref (-1) and chosen_t = ref 0. and chosen_mag = ref 0. in
    let chosen_land = ref SBasic in
    for i = 0 to m - 1 do
      let delta = -.dir *. w.(i) in
      if abs_float delta > pivot_tol then begin
        let land_on = row_candidate st ~phase1 w dir i in
        if land_on <> SBasic then begin
          let t = fmax 0. cell.(0) in
          if t <= t_limit +. 1e-12 then begin
            let better =
              !chosen < 0
              || (if bland then st.basis.(i) < st.basis.(!chosen)
                  else abs_float w.(i) > !chosen_mag)
            in
            if better then begin
              chosen := i;
              chosen_t := t;
              chosen_land := land_on;
              chosen_mag := abs_float w.(i)
            end
          end
        end
      end
    done;
    if !chosen >= 0 then
      if self_range < !chosen_t then block st Self_flip ~row:(-1) ~land_on:SBasic self_range
      else block st Leaving ~row:!chosen ~land_on:!chosen_land !chosen_t
    else if self_range < infinity then block st Self_flip ~row:(-1) ~land_on:SBasic self_range
    else block st No_block ~row:(-1) ~land_on:SBasic infinity
  end

(* ------------------------------------------------------------------ *)
(* Pivoting                                                             *)
(* ------------------------------------------------------------------ *)

(* Apply a step of size [t] for entering variable [q] moving in [dir];
   [w] is the ftran'd entering column and the blocking event is the
   ratio test's. *)
let apply_step st w dir q t =
  let m = st.sf.Stdform.nrows in
  if t > 0. then
    for i = 0 to m - 1 do
      st.xb.(i) <- st.xb.(i) -. (dir *. t *. w.(i))
    done;
  match st.rt_block with
  | No_block -> ()
  | Self_flip ->
    st.stat.(q) <- (match st.stat.(q) with SLower -> SUpper | SUpper -> SLower | s -> s);
    st.degenerate_streak <- 0
  | Leaving ->
    let r = st.rt_row in
    let leaving = st.basis.(r) in
    let entering_value = nb_value st q +. (dir *. t) in
    st.stat.(leaving) <-
      (match st.rt_land with SLower when st.lb.(leaving) = neg_infinity -> SFree | s -> s);
    st.basis.(r) <- q;
    st.stat.(q) <- SBasic;
    st.xb.(r) <- entering_value;
    if t <= feas_tol then st.degenerate_streak <- st.degenerate_streak + 1
    else st.degenerate_streak <- 0;
    push_eta st r w

(* ------------------------------------------------------------------ *)
(* Phase loops                                                          *)
(* ------------------------------------------------------------------ *)

(* Largest bound violation among basic variables. Phase 1 is "done"
   exactly when every violation is within [feas_tol], which is also when
   the phase-1 cost vector becomes all-zero. *)
let max_violation st =
  let m = st.sf.Stdform.nrows in
  let acc = ref 0. in
  for i = 0 to m - 1 do
    let bi = st.basis.(i) in
    let x = st.xb.(i) in
    if x < st.lb.(bi) then acc := fmax !acc (st.lb.(bi) -. x)
    else if x > st.ub.(bi) then acc := fmax !acc (x -. st.ub.(bi))
  done;
  !acc

(* Phase-1 cost vector over basic rows (piecewise gradient of the
   infeasibility sum). *)
let phase1_duals st =
  let m = st.sf.Stdform.nrows in
  let y = st.ws.y in
  for i = 0 to m - 1 do
    let bi = st.basis.(i) in
    y.(i) <-
      (if st.xb.(i) < st.lb.(bi) -. feas_tol then -1.
       else if st.xb.(i) > st.ub.(bi) +. feas_tol then 1.
       else 0.)
  done;
  btran st y;
  y

let phase2_duals st =
  let m = st.sf.Stdform.nrows in
  let y = st.ws.y in
  for i = 0 to m - 1 do
    y.(i) <- st.sf.Stdform.cost.(st.basis.(i))
  done;
  btran st y;
  y

let max_iters st = 20000 + (100 * st.sf.Stdform.nrows)

type phase_outcome = Phase_done | Phase_infeasible | Phase_unbounded | Phase_iters

let out_of_time st =
  st.iters land 63 = 0
  && (match st.p.budget with
     | Some b -> Budget.exhausted b
     | None -> Faults.early_timeout ())

let reset_devex st =
  Array.fill st.devex 0 (Array.length st.devex) 1.

(* Devex weight update (Forrest-Goldfarb): after choosing entering [q]
   with ftran'd column [w] and pivot row [r], nonbasic weights absorb the
   pivot row's influence and the leaving variable gets the reference
   weight of the entering one. One btran + one pass over the matrix. *)
let update_devex st w r q =
  let sf = st.sf in
  let col_start = sf.Stdform.col_start and row_idx = sf.Stdform.row_idx in
  let value = sf.Stdform.value in
  let alpha_q = w.(r) in
  if abs_float alpha_q > 1e-12 then begin
    let rho = pivot_row st r in
    let wq = fmax st.devex.(q) 1. in
    let scale = wq /. (alpha_q *. alpha_q) in
    for j = 0 to sf.Stdform.ncols - 1 do
      if j <> q && st.stat.(j) <> SBasic then begin
        let alpha = ref 0. in
        for k = col_start.(j) to col_start.(j + 1) - 1 do
          alpha := !alpha +. (value.(k) *. rho.(row_idx.(k)))
        done;
        if abs_float !alpha > 1e-12 then begin
          let cand = !alpha *. !alpha *. scale in
          if cand > st.devex.(j) then st.devex.(j) <- cand
        end
      end
    done;
    st.devex.(st.basis.(r)) <- fmax scale 1.
  end

(* A pivot is numerically acceptable when it is not minuscule relative to
   the largest entry of the ftran'd column; accepting relatively tiny
   pivots drives the basis determinant toward zero within a handful of
   iterations on degenerate encodings. *)
let pivot_acceptable st w r =
  let wmax = ref 0. in
  for i = 0 to Array.length w - 1 do
    wmax := fmax !wmax (abs_float w.(i))
  done;
  abs_float w.(r) >= fmax (10. *. st.p.pivot_tol) (1e-5 *. !wmax)
  && not (Faults.pivot_rejected ())

(* One simplex phase. [phase1] selects the dynamic infeasibility costs
   and the extended ratio test. Stability handling: an unacceptable pivot
   first triggers a refactorization (fresh numerics) and a retry; if the
   factorization was already fresh, the entering candidate is banned for
   the current pricing generation. Running out of candidates while bans
   are active ends the phase *without* an optimality/infeasibility claim. *)
let run_phase st ~phase1 =
  let limit = max_iters st in
  let sf = st.sf in
  reset_devex st;
  let rec loop () =
    if phase1 && max_violation st <= feas_tol then Phase_done
    else if st.iters >= limit || out_of_time st then Phase_iters
    else begin
      st.iters <- st.iters + 1;
      let bland = st.p.force_bland || st.degenerate_streak > 100 in
      let y = if phase1 then phase1_duals st else phase2_duals st in
      (* Objective magnitude at the current point (basic part plus the
         nonbasic bound contributions), used to scale the dual tolerance. *)
      let obj_scale =
        if phase1 then 0.
        else begin
          let acc = ref 0. in
          for i = 0 to sf.Stdform.nrows - 1 do
            acc := !acc +. (sf.Stdform.cost.(st.basis.(i)) *. st.xb.(i))
          done;
          for j = 0 to sf.Stdform.ncols - 1 do
            if st.stat.(j) <> SBasic && sf.Stdform.cost.(j) <> 0. then
              acc := !acc +. (sf.Stdform.cost.(j) *. nb_value st j)
          done;
          abs_float !acc
        end
      in
      let q = choose_entering st y ~phase1 ~obj_scale ~bland in
      if q < 0 then (if phase1 then Phase_infeasible else Phase_done)
      else begin
        let dir = if st.enter_up then 1. else -1. in
        let w = entering_column st q in
        Faults.perturb_vector w;
        ratio_test st ~phase1 ~bland w dir q;
        let t = st.ws.cell.(1) in
        match st.rt_block with
        | No_block ->
          (* Phase 1's objective is bounded below, so an unblocked
             improving ray there signals numerical trouble. *)
          if phase1 then Phase_infeasible else Phase_unbounded
        | Leaving when st.n_etas >= 8 && not (pivot_acceptable st w st.rt_row) ->
          (* Recompute with fresh numerics and retry this iteration; if
             the small pivot is genuine, the retry accepts it (equilibration
             keeps such pivots rare, and the repair path catches the
             conditioning fallout). *)
          refactorize st;
          loop ()
        | (Self_flip | Leaving) as b ->
          if t = infinity then (if phase1 then Phase_infeasible else Phase_unbounded)
          else begin
            if b = Leaving then begin
              update_devex st w st.rt_row q;
              (* Runaway weights mean the reference framework is stale. *)
              if st.devex.(q) > 1e8 then reset_devex st
            end;
            apply_step st w dir q t;
            loop ()
          end
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let extract st status =
  let x = Array.make st.sf.Stdform.ncols 0. in
  for j = 0 to st.sf.Stdform.ncols - 1 do
    if st.stat.(j) <> SBasic then x.(j) <- nb_value st j
  done;
  for i = 0 to st.sf.Stdform.nrows - 1 do
    x.(st.basis.(i)) <- st.xb.(i)
  done;
  (* Scaled costs dotted with scaled values give the user objective. *)
  let objective = ref 0. in
  for j = 0 to st.sf.Stdform.ncols - 1 do
    objective := !objective +. (st.sf.Stdform.cost.(j) *. x.(j))
  done;
  (* Back to user space. *)
  for j = 0 to st.sf.Stdform.ncols - 1 do
    x.(j) <- x.(j) *. st.sf.Stdform.col_scale.(j)
  done;
  {
    status;
    objective = Faults.corrupt_objective !objective;
    x;
    iters = st.iters;
    basis = Array.copy st.basis;
    vstatus = Array.copy st.stat;
    (* With an empty eta file the current factorization is exactly the
       basis's, ready for a warm re-solve to reuse; it lives in the
       workspace, so the result gets its own copy. *)
    factor =
      (match st.factor with
      | Sparse_f lu when status = Optimal && st.n_etas = 0 ->
        Some { f_sf = st.sf; f_lu = Sparse_lu.copy lu }
      | Sparse_f _ | Dense_f _ -> None);
  }

let cold_start sf lb ub =
  let basis = Array.init sf.Stdform.nrows (fun i -> sf.Stdform.nstruct + i) in
  let stat = Array.make sf.Stdform.ncols SLower in
  for j = 0 to sf.Stdform.ncols - 1 do
    stat.(j) <-
      (if lb.(j) > neg_infinity then SLower else if ub.(j) < infinity then SUpper else SFree)
  done;
  Array.iter (fun b -> stat.(b) <- SBasic) basis;
  (basis, stat)

(* Clamp tiny residual infeasibilities after phase 1 so phase 2's ratio
   test starts from a consistent point. *)
let clamp_basics st =
  for i = 0 to st.sf.Stdform.nrows - 1 do
    let bi = st.basis.(i) in
    if st.xb.(i) < st.lb.(bi) && st.xb.(i) > st.lb.(bi) -. (10. *. feas_tol) then
      st.xb.(i) <- st.lb.(bi)
    else if st.xb.(i) > st.ub.(bi) && st.xb.(i) < st.ub.(bi) +. (10. *. feas_tol) then
      st.xb.(i) <- st.ub.(bi)
  done

(* The handed-down factor, when it factorizes exactly the warm basis of
   this matrix and the solve uses the sparse backend. *)
let reusable_factor params sf warm factor =
  match (warm, factor) with
  | Some (b, _), Some f
    when params.backend = Sparse_backend && f.f_sf == sf && Sparse_lu.factorizes f.f_lu b ->
    Some (Sparse_f f.f_lu)
  | _ -> None

let solve_in (ws : work) params warm factor sf ~lb:user_lb ~ub:user_ub =
  (* Map user-space bounds into the solver's scaled space (x' = x / c). *)
  let lb = ws.lb and ub = ws.ub in
  for j = 0 to sf.Stdform.ncols - 1 do
    lb.(j) <- user_lb.(j) /. sf.Stdform.col_scale.(j);
    ub.(j) <- user_ub.(j) /. sf.Stdform.col_scale.(j)
  done;
  let basis, stat =
    match warm with
    | Some (b, s) -> (Array.copy b, Array.copy s)
    | None -> cold_start sf lb ub
  in
  (* A warm nonbasic status can be inconsistent with tightened bounds
     (e.g. SUpper with ub now infinite); repair it. *)
  for j = 0 to sf.Stdform.ncols - 1 do
    match stat.(j) with
    | SLower when lb.(j) = neg_infinity ->
      stat.(j) <- (if ub.(j) < infinity then SUpper else SFree)
    | SUpper when ub.(j) = infinity ->
      stat.(j) <- (if lb.(j) > neg_infinity then SLower else SFree)
    | SFree when lb.(j) > neg_infinity -> stat.(j) <- SLower
    | SFree when ub.(j) < infinity -> stat.(j) <- SUpper
    | _ -> ()
  done;
  let make_state basis stat lu =
    let st =
      {
        sf;
        p = params;
        lb;
        ub;
        basis;
        stat;
        xb = ws.xb;
        factor = no_lu;
        n_etas = 0;
        iters = 0;
        degenerate_streak = 0;
        repaired = false;
        devex = ws.devex;
        ws;
        enter_up = true;
        rt_block = No_block;
        rt_row = -1;
        rt_land = SBasic;
      }
    in
    Array.fill st.devex 0 sf.Stdform.ncols 1.;
    st.factor <- (match lu with Some lu -> lu | None -> factorize_basis st);
    recompute_xb st;
    st
  in
  let st =
    match make_state basis stat (reusable_factor params sf warm factor) with
    | st -> st
    | exception Factor_singular _ ->
      let basis, stat = cold_start sf lb ub in
      make_state basis stat None
  in
  (* The two-phase loop, with a bounded number of restarts: a singular
     refactorization repairs to the slack basis mid-phase, after which
     the point may be primal-infeasible again and phase 1 must rerun. *)
  let rec drive attempts =
    if attempts <= 0 then extract st Numerical_failure
    else begin
      st.repaired <- false;
      match run_phase st ~phase1:true with
      | exception Factor_singular _ -> extract st Numerical_failure
      | Phase_infeasible -> extract st Infeasible
      | Phase_iters -> extract st Iteration_limit
      | Phase_unbounded -> extract st Numerical_failure
      | Phase_done -> (
        clamp_basics st;
        st.degenerate_streak <- 0;
        match run_phase st ~phase1:false with
        | exception Factor_singular _ -> extract st Numerical_failure
        | Phase_done ->
          (* Guard against drift: refactorize and re-verify feasibility. *)
          (match refactorize st with
          | () ->
            if max_violation st > 10. *. feas_tol then drive (attempts - 1)
            else extract st Optimal
          | exception Factor_singular _ -> extract st Numerical_failure)
        | Phase_unbounded ->
          (* Genuine unboundedness is rare once variables carry finite
             bounds; a drifting dual vector can fake it. Retry once from
             a fresh factorization. *)
          if attempts > 1 then begin
            refactorize st;
            drive (attempts - 1)
          end
          else extract st Unbounded
        | Phase_iters -> extract st Iteration_limit
        | Phase_infeasible ->
          if st.repaired then drive (attempts - 1) else extract st Numerical_failure)
    end
  in
  drive 4

let solve ?(params = default_params) ?warm ?factor sf ~lb ~ub =
  let ws = acquire_work sf in
  match solve_in ws params warm factor sf ~lb ~ub with
  | r ->
    ws.busy <- false;
    r
  | exception e ->
    ws.busy <- false;
    raise e

let tableau_rows sf (res : result) positions =
  let m = sf.Stdform.nrows in
  List.iter (fun r -> if r < 0 || r >= m then invalid_arg "Simplex.tableau_rows") positions;
  (* Rebuild the factorization for the final basis once for the batch. *)
  match
    Sparse_lu.factorize ~dim:m ~col_start:sf.Stdform.col_start ~row_idx:sf.Stdform.row_idx
      ~value:sf.Stdform.value res.basis
  with
  | exception Sparse_lu.Singular _ -> []
  | factor ->
    let work = Array.make m 0. in
    List.map
      (fun r ->
        let e = Array.make m 0. in
        e.(r) <- 1.;
        Sparse_lu.solve_transposed factor ~work e;
        (* Row of B^-1 A in scaled space, then unscaled: multiplying the
           row by the basic column's scale and dividing each coefficient
           by its own column scale restores user-space semantics
           (x_Br + sum a_j x_j = basic value). *)
        let c_basic = sf.Stdform.col_scale.(res.basis.(r)) in
        let row = Array.make sf.Stdform.ncols 0. in
        for j = 0 to sf.Stdform.ncols - 1 do
          let acc = ref 0. in
          for k = sf.Stdform.col_start.(j) to sf.Stdform.col_start.(j + 1) - 1 do
            acc := !acc +. (sf.Stdform.value.(k) *. e.(sf.Stdform.row_idx.(k)))
          done;
          row.(j) <- !acc *. c_basic /. sf.Stdform.col_scale.(j)
        done;
        (r, row, res.x.(res.basis.(r))))
      positions
