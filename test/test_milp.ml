(* Tests for the MILP substrate: simplex, branch & bound, presolve, cuts,
   linearization and the LP file format. Property tests compare the solver
   against brute-force oracles on small random instances. *)

module Problem = Milp.Problem
module Linexpr = Milp.Linexpr
module Stdform = Milp.Stdform
module Simplex = Milp.Simplex
module Branch_bound = Milp.Branch_bound
module Solver = Milp.Solver
module Presolve = Milp.Presolve
module Cuts = Milp.Cuts
module Linearize = Milp.Linearize
module Lp_format = Milp.Lp_format
module Mps_format = Milp.Mps_format
module Pqueue = Milp.Pqueue
module Sparse_lu = Milp.Sparse_lu
module Dense = Milp.Dense

let check_float = Alcotest.(check (float 1e-6))

(* Most tests only care about the branch & bound outcome; project it out
   of the solver facade's certified result. *)
let solve_mip ?params ?mip_start ?on_progress p =
  (Solver.solve ?params ?mip_start ?on_progress p).Solver.result

(* ------------------------------------------------------------------ *)
(* Simplex unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let solve_lp p =
  let sf = Stdform.of_problem p in
  let lb, ub = Stdform.bounds sf in
  let res = Simplex.solve sf ~lb ~ub in
  (sf, res)

let status_to_string = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iteration-limit"
  | Simplex.Numerical_failure -> "numerical-failure"

let check_status expected res =
  Alcotest.(check string) "status" (status_to_string expected) (status_to_string res.Simplex.status)

(* Classic Dantzig example: max 3x + 5y s.t. x <= 4, 2y <= 12,
   3x + 2y <= 18; optimum 36 at (2, 6). *)
let test_dantzig () =
  let p = Problem.create ~name:"dantzig" () in
  let x = Problem.add_var p ~name:"x" () in
  let y = Problem.add_var p ~name:"y" () in
  Problem.add_constr p (Linexpr.var x) Problem.Le 4.;
  Problem.add_constr p (Linexpr.var ~coeff:2. y) Problem.Le 12.;
  Problem.add_constr p Linexpr.(add (var ~coeff:3. x) (var ~coeff:2. y)) Problem.Le 18.;
  Problem.set_objective p Problem.Maximize Linexpr.(add (var ~coeff:3. x) (var ~coeff:5. y));
  let sf, res = solve_lp p in
  check_status Simplex.Optimal res;
  check_float "objective" 36. (Stdform.user_objective sf res.Simplex.objective);
  check_float "x" 2. res.Simplex.x.(x);
  check_float "y" 6. res.Simplex.x.(y)

let test_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" () in
  Problem.add_constr p (Linexpr.var x) Problem.Ge 2.;
  Problem.add_constr p (Linexpr.var x) Problem.Le 1.;
  let _, res = solve_lp p in
  check_status Simplex.Infeasible res

let test_unbounded () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" () in
  let y = Problem.add_var p ~name:"y" () in
  Problem.add_constr p Linexpr.(sub (var x) (var y)) Problem.Le 1.;
  Problem.set_objective p Problem.Maximize (Linexpr.var x);
  let _, res = solve_lp p in
  check_status Simplex.Unbounded res

let test_pure_bounds () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" ~ub:5. () in
  let y = Problem.add_var p ~name:"y" ~lb:(-3.) ~ub:7. () in
  Problem.set_objective p Problem.Minimize Linexpr.(add (var ~coeff:(-1.) x) (var ~coeff:2. y));
  let sf, res = solve_lp p in
  check_status Simplex.Optimal res;
  check_float "objective" (-11.) (Stdform.user_objective sf res.Simplex.objective);
  check_float "x" 5. res.Simplex.x.(x);
  check_float "y" (-3.) res.Simplex.x.(y)

let test_equality () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" ~ub:8. () in
  let y = Problem.add_var p ~name:"y" ~ub:8. () in
  Problem.add_constr p Linexpr.(add (var x) (var y)) Problem.Eq 10.;
  Problem.set_objective p Problem.Minimize (Linexpr.var x);
  let sf, res = solve_lp p in
  check_status Simplex.Optimal res;
  check_float "objective" 2. (Stdform.user_objective sf res.Simplex.objective);
  check_float "x" 2. res.Simplex.x.(x);
  check_float "y" 8. res.Simplex.x.(y)

let test_free_variable () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" ~lb:neg_infinity ~ub:infinity () in
  let y = Problem.add_var p ~name:"y" ~lb:(-10.) ~ub:10. () in
  Problem.add_constr p Linexpr.(add (var x) (var y)) Problem.Ge 4.;
  Problem.add_constr p Linexpr.(sub (var x) (var y)) Problem.Le 2.;
  Problem.set_objective p Problem.Minimize (Linexpr.var x);
  let sf, res = solve_lp p in
  check_status Simplex.Optimal res;
  check_float "objective" (-6.) (Stdform.user_objective sf res.Simplex.objective)

let test_degenerate () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" () in
  let y = Problem.add_var p ~name:"y" () in
  Problem.add_constr p Linexpr.(add (var x) (var y)) Problem.Le 1.;
  Problem.add_constr p Linexpr.(add (var ~coeff:2. x) (var ~coeff:2. y)) Problem.Le 2.;
  Problem.add_constr p Linexpr.(add (var ~coeff:3. x) (var ~coeff:3. y)) Problem.Le 3.;
  Problem.add_constr p (Linexpr.var x) Problem.Le 1.;
  Problem.set_objective p Problem.Maximize Linexpr.(add (var x) (var y));
  let sf, res = solve_lp p in
  check_status Simplex.Optimal res;
  check_float "objective" 1. (Stdform.user_objective sf res.Simplex.objective)

(* Warm start from the optimal basis of a slightly different problem. *)
let test_warm_start () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" ~ub:10. () in
  let y = Problem.add_var p ~name:"y" ~ub:10. () in
  Problem.add_constr p Linexpr.(add (var x) (var y)) Problem.Le 10.;
  Problem.set_objective p Problem.Maximize Linexpr.(add (var ~coeff:2. x) (var y));
  let sf = Stdform.of_problem p in
  let lb, ub = Stdform.bounds sf in
  let res = Simplex.solve sf ~lb ~ub in
  check_status Simplex.Optimal res;
  (* Tighten x's upper bound and re-solve warm. *)
  ub.(x) <- 3.;
  let res' = Simplex.solve ~warm:(res.Simplex.basis, res.Simplex.vstatus) sf ~lb ~ub in
  check_status Simplex.Optimal res';
  check_float "objective" 13. (Stdform.user_objective sf res'.Simplex.objective)

let simplex_tests =
  [
    Alcotest.test_case "dantzig" `Quick test_dantzig;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "pure bounds" `Quick test_pure_bounds;
    Alcotest.test_case "equality" `Quick test_equality;
    Alcotest.test_case "free variable" `Quick test_free_variable;
    Alcotest.test_case "degenerate" `Quick test_degenerate;
    Alcotest.test_case "warm start" `Quick test_warm_start;
  ]

(* ------------------------------------------------------------------ *)
(* Branch & bound unit tests                                            *)
(* ------------------------------------------------------------------ *)

let bb_status_to_string = function
  | Branch_bound.Optimal -> "optimal"
  | Branch_bound.Feasible -> "feasible"
  | Branch_bound.Infeasible -> "infeasible"
  | Branch_bound.Unbounded -> "unbounded"
  | Branch_bound.Unknown -> "unknown"

let check_bb_status expected out =
  Alcotest.(check string) "status" (bb_status_to_string expected)
    (bb_status_to_string out.Branch_bound.o_status)

let get_objective out =
  match out.Branch_bound.o_objective with
  | Some v -> v
  | None -> Alcotest.fail "expected an objective"

(* 0/1 knapsack: values 10 13 7 8, weights 5 6 4 3, capacity 10.
   Optimum: items 1 and 3 (13 + 8 = 21, weight 9). *)
let knapsack_problem () =
  let p = Problem.create ~name:"knapsack" () in
  let values = [| 10.; 13.; 7.; 8. |] and weights = [| 5.; 6.; 4.; 3. |] in
  let xs = Array.map (fun _ -> Problem.add_var p ~kind:Problem.Binary ()) values in
  let weight =
    Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs) |> Linexpr.of_terms
  in
  Problem.add_constr p weight Problem.Le 10.;
  let value = Array.to_list (Array.mapi (fun i x -> (x, values.(i))) xs) |> Linexpr.of_terms in
  Problem.set_objective p Problem.Maximize value;
  (p, xs)

let test_knapsack () =
  let p, xs = knapsack_problem () in
  let out = solve_mip p in
  check_bb_status Branch_bound.Optimal out;
  check_float "objective" 21. (get_objective out);
  match out.Branch_bound.o_x with
  | None -> Alcotest.fail "expected a solution"
  | Some x ->
    check_float "item1" 1. x.(xs.(1));
    check_float "item3" 1. x.(xs.(3))

let test_integer_rounding_gap () =
  (* max x + y s.t. 2x + 2y <= 3, binary: LP gives 1.5, IP optimum 1. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~kind:Problem.Binary () in
  let y = Problem.add_var p ~kind:Problem.Binary () in
  Problem.add_constr p Linexpr.(add (var ~coeff:2. x) (var ~coeff:2. y)) Problem.Le 3.;
  Problem.set_objective p Problem.Maximize Linexpr.(add (var x) (var y));
  let out = solve_mip p in
  check_bb_status Branch_bound.Optimal out;
  check_float "objective" 1. (get_objective out)

let test_mixed_integer () =
  (* min y - x  s.t. y >= 0.3 + x, x integer in [0, 5], y <= 4.  The best
     is x as large as possible with y = x + 0.3 <= 4 so x = 3, y = 3.3. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~kind:Problem.Integer ~ub:5. () in
  let y = Problem.add_var p ~ub:4. () in
  Problem.add_constr p Linexpr.(sub (var y) (var x)) Problem.Ge 0.3;
  Problem.set_objective p Problem.Minimize Linexpr.(sub (var y) (var x));
  let out = solve_mip p in
  check_bb_status Branch_bound.Optimal out;
  check_float "objective" 0.3 (get_objective out)

let test_mip_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p ~kind:Problem.Binary () in
  let y = Problem.add_var p ~kind:Problem.Binary () in
  Problem.add_constr p Linexpr.(add (var x) (var y)) Problem.Ge 3.;
  let out = solve_mip p in
  check_bb_status Branch_bound.Infeasible out

let test_mip_start () =
  let p, _ = knapsack_problem () in
  (* Feasible but suboptimal start: item 0 and item 2 (17). *)
  let start = { Milp.Warm_start.ws_x = [| 1.; 0.; 1.; 0. |]; ws_source = "test" } in
  let saw_start = ref false in
  let out =
    solve_mip ~mip_start:start
      ~on_progress:(fun pr ->
        match pr.Branch_bound.pr_incumbent with
        | Some v when abs_float (v -. 17.) < 1e-6 -> saw_start := true
        | _ -> ())
      p
  in
  check_bb_status Branch_bound.Optimal out;
  check_float "objective" 21. (get_objective out);
  Alcotest.(check bool) "start was used as first incumbent" true !saw_start

let test_anytime_trace_monotone () =
  let p, _ = knapsack_problem () in
  let out = solve_mip p in
  let rec check_monotone last = function
    | [] -> ()
    | pr :: rest ->
      (match (last, pr.Branch_bound.pr_incumbent) with
      | Some prev, Some cur ->
        (* Maximization: incumbents improve upward. *)
        Alcotest.(check bool) "incumbent monotone" true (cur >= prev -. 1e-9)
      | _ -> ());
      check_monotone
        (match pr.Branch_bound.pr_incumbent with Some v -> Some v | None -> last)
        rest
  in
  check_monotone None out.Branch_bound.o_trace

let bb_tests =
  [
    Alcotest.test_case "knapsack" `Quick test_knapsack;
    Alcotest.test_case "integrality gap closed" `Quick test_integer_rounding_gap;
    Alcotest.test_case "mixed integer" `Quick test_mixed_integer;
    Alcotest.test_case "infeasible MIP" `Quick test_mip_infeasible;
    Alcotest.test_case "MIP start" `Quick test_mip_start;
    Alcotest.test_case "anytime trace monotone" `Quick test_anytime_trace_monotone;
  ]

(* ------------------------------------------------------------------ *)
(* Random instance generators and oracles                               *)
(* ------------------------------------------------------------------ *)

(* A random small binary program described by plain data so shrinking works. *)
type binary_program = {
  bp_nvars : int;
  bp_constrs : (int list * int) list;  (* coefficients in [-3,3], rhs *)
  bp_obj : int list;
}

let gen_binary_program =
  let open QCheck.Gen in
  let* nvars = int_range 2 5 in
  let* nconstrs = int_range 1 4 in
  let coeff = int_range (-3) 3 in
  let* constrs =
    list_size (return nconstrs)
      (let* cs = list_size (return nvars) coeff in
       let* rhs = int_range (-2) 6 in
       return (cs, rhs))
  in
  let* obj = list_size (return nvars) (int_range (-5) 5) in
  return { bp_nvars = nvars; bp_constrs = constrs; bp_obj = obj }

let problem_of_binary_program bp =
  let p = Problem.create ~name:"random-bp" () in
  let xs = Array.init bp.bp_nvars (fun _ -> Problem.add_var p ~kind:Problem.Binary ()) in
  List.iter
    (fun (cs, rhs) ->
      let e = Linexpr.of_terms (List.mapi (fun i c -> (xs.(i), float_of_int c)) cs) in
      Problem.add_constr p e Problem.Le (float_of_int rhs))
    bp.bp_constrs;
  let obj = Linexpr.of_terms (List.mapi (fun i c -> (xs.(i), float_of_int c)) bp.bp_obj) in
  Problem.set_objective p Problem.Minimize obj;
  (p, xs)

(* Exhaustive 0/1 oracle: minimal objective over feasible assignments. *)
let brute_force_binary bp =
  let best = ref None in
  let n = bp.bp_nvars in
  for mask = 0 to (1 lsl n) - 1 do
    let x i = if mask land (1 lsl i) <> 0 then 1 else 0 in
    let feasible =
      List.for_all
        (fun (cs, rhs) ->
          let lhs = List.fold_left ( + ) 0 (List.mapi (fun i c -> c * x i) cs) in
          lhs <= rhs)
        bp.bp_constrs
    in
    if feasible then begin
      let obj = List.fold_left ( + ) 0 (List.mapi (fun i c -> c * x i) bp.bp_obj) in
      match !best with Some b when b <= obj -> () | _ -> best := Some obj
    end
  done;
  !best

let prop_bb_matches_brute_force =
  QCheck.Test.make ~count:150 ~name:"branch & bound matches 0/1 brute force"
    (QCheck.make gen_binary_program) (fun bp ->
      let p, _ = problem_of_binary_program bp in
      let out = solve_mip p in
      match (brute_force_binary bp, out.Branch_bound.o_status) with
      | None, Branch_bound.Infeasible -> true
      | None, _ -> false
      | Some _, (Branch_bound.Infeasible | Branch_bound.Unbounded | Branch_bound.Unknown) ->
        false
      | Some oracle, (Branch_bound.Optimal | Branch_bound.Feasible) ->
        abs_float (get_objective out -. float_of_int oracle) < 1e-6)

(* General random integer programs: integer variables with signed ranges,
   all three constraint senses, both objective senses — against a full
   grid oracle. *)
type general_ip = {
  gp_nvars : int;
  gp_constrs : (int list * int * int) list;  (* coeffs, sense 0/1/2, rhs *)
  gp_obj : int list;
  gp_maximize : bool;
}

let gen_general_ip =
  let open QCheck.Gen in
  let* nvars = int_range 2 4 in
  let* nconstrs = int_range 1 3 in
  let* constrs =
    list_size (return nconstrs)
      (let* cs = list_size (return nvars) (int_range (-3) 3) in
       let* sense = int_range 0 2 in
       let* rhs = int_range (-4) 8 in
       return (cs, sense, rhs))
  in
  let* obj = list_size (return nvars) (int_range (-5) 5) in
  let* gp_maximize = bool in
  return { gp_nvars = nvars; gp_constrs = constrs; gp_obj = obj; gp_maximize }

let general_ip_bounds = (-2, 3)

let problem_of_general_ip gp =
  let lo, hi = general_ip_bounds in
  let p = Problem.create ~name:"random-ip" () in
  let xs =
    Array.init gp.gp_nvars (fun _ ->
        Problem.add_var p ~kind:Problem.Integer ~lb:(float_of_int lo) ~ub:(float_of_int hi) ())
  in
  List.iter
    (fun (cs, sense, rhs) ->
      let e = Linexpr.of_terms (List.mapi (fun i c -> (xs.(i), float_of_int c)) cs) in
      let sense = match sense with 0 -> Problem.Le | 1 -> Problem.Ge | _ -> Problem.Eq in
      Problem.add_constr p e sense (float_of_int rhs))
    gp.gp_constrs;
  let obj = Linexpr.of_terms (List.mapi (fun i c -> (xs.(i), float_of_int c)) gp.gp_obj) in
  Problem.set_objective p (if gp.gp_maximize then Problem.Maximize else Problem.Minimize) obj;
  p

let brute_force_general gp =
  let lo, hi = general_ip_bounds in
  let span = hi - lo + 1 in
  let best = ref None in
  let total = int_of_float (float_of_int span ** float_of_int gp.gp_nvars) in
  for code = 0 to total - 1 do
    let x i = lo + (code / int_of_float (float_of_int span ** float_of_int i)) mod span in
    let feasible =
      List.for_all
        (fun (cs, sense, rhs) ->
          let lhs = List.fold_left ( + ) 0 (List.mapi (fun i c -> c * x i) cs) in
          match sense with 0 -> lhs <= rhs | 1 -> lhs >= rhs | _ -> lhs = rhs)
        gp.gp_constrs
    in
    if feasible then begin
      let v = List.fold_left ( + ) 0 (List.mapi (fun i c -> c * x i) gp.gp_obj) in
      match !best with
      | Some b when (if gp.gp_maximize then b >= v else b <= v) -> ()
      | _ -> best := Some v
    end
  done;
  !best

let prop_bb_matches_general_oracle =
  QCheck.Test.make ~count:120 ~name:"branch & bound matches general-integer grid oracle"
    (QCheck.make gen_general_ip) (fun gp ->
      let p = problem_of_general_ip gp in
      let out = solve_mip p in
      match (brute_force_general gp, out.Branch_bound.o_status) with
      | None, Branch_bound.Infeasible -> true
      | None, _ -> false
      | Some _, (Branch_bound.Infeasible | Branch_bound.Unbounded | Branch_bound.Unknown) ->
        false
      | Some oracle, (Branch_bound.Optimal | Branch_bound.Feasible) ->
        abs_float (get_objective out -. float_of_int oracle) < 1e-5)

(* Random LPs against a grid-search oracle: simplex must be feasible and at
   least as good as any grid point. *)
type lp_instance = { lp_nvars : int; lp_constrs : (int list * int) list; lp_obj : int list }

let gen_lp_instance =
  let open QCheck.Gen in
  let* nvars = int_range 2 3 in
  let* nconstrs = int_range 1 4 in
  let* constrs =
    list_size (return nconstrs)
      (let* cs = list_size (return nvars) (int_range (-2) 3) in
       let* rhs = int_range 0 10 in
       return (cs, rhs))
  in
  let* obj = list_size (return nvars) (int_range (-4) 4) in
  return { lp_nvars = nvars; lp_constrs = constrs; lp_obj = obj }

let prop_simplex_beats_grid =
  QCheck.Test.make ~count:150 ~name:"simplex no worse than grid search"
    (QCheck.make gen_lp_instance) (fun inst ->
      let p = Problem.create ~name:"random-lp" () in
      let xs = Array.init inst.lp_nvars (fun _ -> Problem.add_var p ~ub:5. ()) in
      List.iter
        (fun (cs, rhs) ->
          let e = Linexpr.of_terms (List.mapi (fun i c -> (xs.(i), float_of_int c)) cs) in
          Problem.add_constr p e Problem.Le (float_of_int rhs))
        inst.lp_constrs;
      let obj = Linexpr.of_terms (List.mapi (fun i c -> (xs.(i), float_of_int c)) inst.lp_obj) in
      Problem.set_objective p Problem.Minimize obj;
      let sf, res = solve_lp p in
      match res.Simplex.status with
      | Simplex.Optimal ->
        (* Returned point must satisfy the problem. *)
        let value v = res.Simplex.x.(v) in
        (match Problem.check_feasible p value with
        | Error _ -> false
        | Ok _ ->
          let simplex_obj = Stdform.user_objective sf res.Simplex.objective in
          (* Grid search with step 0.5 (origin is always feasible since
             rhs >= 0, so the LP cannot be infeasible). *)
          let steps = 11 in
          let best = ref infinity in
          let rec walk assignment = function
            | [] ->
              let x i = List.nth (List.rev assignment) i in
              let feasible =
                List.for_all
                  (fun (cs, rhs) ->
                    let lhs =
                      List.fold_left ( +. ) 0.
                        (List.mapi (fun i c -> float_of_int c *. x i) cs)
                    in
                    lhs <= float_of_int rhs +. 1e-9)
                  inst.lp_constrs
              in
              if feasible then begin
                let v =
                  List.fold_left ( +. ) 0.
                    (List.mapi (fun i c -> float_of_int c *. x i) inst.lp_obj)
                in
                if v < !best then best := v
              end
            | _ :: rest ->
              for s = 0 to steps - 1 do
                walk ((float_of_int s *. 0.5) :: assignment) rest
              done
          in
          walk [] (List.init inst.lp_nvars (fun i -> i));
          simplex_obj <= !best +. 1e-6)
      | Simplex.Infeasible -> false (* origin is feasible *)
      | Simplex.Unbounded -> true (* possible with negative coefficients *)
      | Simplex.Iteration_limit | Simplex.Numerical_failure -> false)

(* Presolve must not change the optimum. *)
let prop_presolve_preserves_optimum =
  QCheck.Test.make ~count:100 ~name:"presolve preserves MILP optimum"
    (QCheck.make gen_binary_program) (fun bp ->
      let p, _ = problem_of_binary_program bp in
      let no_presolve =
        { Solver.default_params with Solver.presolve = false; cut_rounds = 0 }
      in
      let with_presolve =
        { Solver.default_params with Solver.presolve = true; cut_rounds = 0 }
      in
      let out1 = solve_mip ~params:no_presolve p in
      let out2 = solve_mip ~params:with_presolve p in
      match (out1.Branch_bound.o_status, out2.Branch_bound.o_status) with
      | Branch_bound.Infeasible, Branch_bound.Infeasible -> true
      | (Branch_bound.Optimal | Branch_bound.Feasible), (Branch_bound.Optimal | Branch_bound.Feasible)
        ->
        abs_float (get_objective out1 -. get_objective out2) < 1e-6
      | _ -> false)

(* Gomory cuts must not cut off any integer point and must not loosen the
   root bound. *)
let prop_cuts_sound =
  QCheck.Test.make ~count:100 ~name:"Gomory cuts preserve integer points"
    (QCheck.make gen_binary_program) (fun bp ->
      let p, xs = problem_of_binary_program bp in
      let strengthened, _ = Cuts.gomory_strengthen p in
      (* Every integer-feasible point of the original must satisfy the
         strengthened problem. *)
      let n = bp.bp_nvars in
      let ok = ref true in
      for mask = 0 to (1 lsl n) - 1 do
        let assignment = Array.make (Problem.num_vars p) 0. in
        Array.iteri
          (fun i v -> assignment.(v) <- (if mask land (1 lsl i) <> 0 then 1. else 0.))
          xs;
        let value v = assignment.(v) in
        let feas_orig = Result.is_ok (Problem.check_feasible p value) in
        let feas_cut = Result.is_ok (Problem.check_feasible strengthened value) in
        if feas_orig && not feas_cut then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Linearization                                                        *)
(* ------------------------------------------------------------------ *)

let test_product_linearization () =
  (* maximize y = b * x with x in [2, 7] forced to 5.5 and b chosen by the
     solver: optimum picks b = 1 giving y = 5.5. *)
  let p = Problem.create () in
  let b = Problem.add_var p ~kind:Problem.Binary () in
  let x = Problem.add_var p ~lb:2. ~ub:7. () in
  Problem.add_constr p (Linexpr.var x) Problem.Eq 5.5;
  let y = Linearize.product_binary_continuous p ~binary:b ~continuous:x ~lb:2. ~ub:7. () in
  Problem.set_objective p Problem.Maximize (Linexpr.var y);
  let out = solve_mip p in
  check_bb_status Branch_bound.Optimal out;
  check_float "objective" 5.5 (get_objective out);
  (* And minimizing forces b = 0, y = 0. *)
  Problem.set_objective p Problem.Minimize (Linexpr.var y);
  let out = solve_mip p in
  check_float "objective" 0. (get_objective out)

let prop_product_matches_semantics =
  QCheck.Test.make ~count:100 ~name:"product linearization equals b*x on integer points"
    QCheck.(pair bool (int_range (-4) 9))
    (fun (bval, xint) ->
      let xval = float_of_int xint /. 2. in
      let lbx = -2. and ubx = 4.5 in
      QCheck.assume (xval >= lbx && xval <= ubx);
      let p = Problem.create () in
      let b = Problem.add_var p ~kind:Problem.Binary () in
      let x = Problem.add_var p ~lb:lbx ~ub:ubx () in
      let y = Linearize.product_binary_continuous p ~binary:b ~continuous:x ~lb:lbx ~ub:ubx () in
      Problem.add_constr p (Linexpr.var b) Problem.Eq (if bval then 1. else 0.);
      Problem.add_constr p (Linexpr.var x) Problem.Eq xval;
      Problem.set_objective p Problem.Minimize Linexpr.zero;
      let out = solve_mip p in
      match out.Branch_bound.o_x with
      | None -> false
      | Some sol ->
        let expected = if bval then xval else 0. in
        abs_float (sol.(y) -. expected) < 1e-5)

let test_bool_and_or () =
  let p = Problem.create () in
  let a = Problem.add_var p ~kind:Problem.Binary () in
  let b = Problem.add_var p ~kind:Problem.Binary () in
  let z_and = Linearize.bool_and p [ a; b ] in
  let z_or = Linearize.bool_or p [ a; b ] in
  Problem.add_constr p (Linexpr.var a) Problem.Eq 1.;
  Problem.add_constr p (Linexpr.var b) Problem.Eq 0.;
  Problem.set_objective p Problem.Minimize Linexpr.zero;
  let out = solve_mip p in
  match out.Branch_bound.o_x with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
    check_float "and" 0. sol.(z_and);
    check_float "or" 1. sol.(z_or)

(* ------------------------------------------------------------------ *)
(* LP format                                                            *)
(* ------------------------------------------------------------------ *)

let test_lp_roundtrip_simple () =
  let p, _ = knapsack_problem () in
  let text = Lp_format.to_string p in
  let q = Lp_format.parse text in
  Alcotest.(check int) "vars" (Problem.num_vars p) (Problem.num_vars q);
  Alcotest.(check int) "constrs" (Problem.num_constrs p) (Problem.num_constrs q);
  let out_p = solve_mip p and out_q = solve_mip q in
  check_float "same optimum" (get_objective out_p) (get_objective out_q)

let prop_lp_roundtrip =
  QCheck.Test.make ~count:100 ~name:"LP file round-trip preserves the optimum"
    (QCheck.make gen_binary_program) (fun bp ->
      let p, _ = problem_of_binary_program bp in
      let q = Lp_format.parse (Lp_format.to_string p) in
      let out_p = solve_mip p and out_q = solve_mip q in
      match (out_p.Branch_bound.o_status, out_q.Branch_bound.o_status) with
      | Branch_bound.Infeasible, Branch_bound.Infeasible -> true
      | (Branch_bound.Optimal | Branch_bound.Feasible), (Branch_bound.Optimal | Branch_bound.Feasible)
        ->
        abs_float (get_objective out_p -. get_objective out_q) < 1e-6
      | _ -> false)

let test_lp_parse_fixture () =
  let text =
    {|\ A small fixture
Maximize
 obj: 3 x + 2 y
Subject To
 c1: x + y <= 4
 c2: x + 3 y <= 6
Bounds
 x <= 3
End
|}
  in
  let p = Lp_format.parse text in
  let out = solve_mip p in
  check_bb_status Branch_bound.Optimal out;
  (* Optimum at x = 3, y = 1: objective 11. *)
  check_float "objective" 11. (get_objective out)

let lp_format_tests =
  [
    Alcotest.test_case "roundtrip knapsack" `Quick test_lp_roundtrip_simple;
    Alcotest.test_case "parse fixture" `Quick test_lp_parse_fixture;
  ]

(* ------------------------------------------------------------------ *)
(* MPS format                                                           *)
(* ------------------------------------------------------------------ *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_mps_structure () =
  let p, _ = knapsack_problem () in
  let text = Mps_format.to_string p in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains_substring text needle))
    [ "NAME"; "ROWS"; "COLUMNS"; "'INTORG'"; "'INTEND'"; "RHS"; "BOUNDS"; " BV BND"; "ENDATA" ]

(* ------------------------------------------------------------------ *)
(* Sparse vs dense LU (differential)                                    *)
(* ------------------------------------------------------------------ *)

(* Compressed sparse column form of a list of (row, value) columns, the
   layout Sparse_lu reads (the same as Stdform's). *)
let csc_of cols =
  let col_start = Array.make (Array.length cols + 1) 0 in
  Array.iteri (fun j col -> col_start.(j + 1) <- col_start.(j) + Array.length col) cols;
  let nnz = col_start.(Array.length cols) in
  let row_idx = Array.make nnz 0 and value = Array.make nnz 0. in
  Array.iteri
    (fun j col ->
      Array.iteri
        (fun n (i, v) ->
          row_idx.(col_start.(j) + n) <- i;
          value.(col_start.(j) + n) <- v)
        col)
    cols;
  (col_start, row_idx, value)

(* One scratch shared by every factorization below, as the simplex
   shares one per domain: each case then also checks that a scratch left
   behind by a different dimension, or by a factorization that raised
   [Singular] midway, does not leak into the next factor. *)
let lu_scratch = Sparse_lu.scratch ()

let sparse_factorize ~dim cols basis =
  let col_start, row_idx, value = csc_of cols in
  Sparse_lu.factorize ~scratch:lu_scratch ~dim ~col_start ~row_idx ~value basis

(* Random sparse invertible-ish matrices: both backends must agree on
   singularity and, when nonsingular, on solutions of both B y = r and
   B^T y = r. *)
let prop_sparse_dense_lu_agree =
  QCheck.Test.make ~count:100 ~name:"sparse and dense LU backends agree"
    QCheck.(pair (int_range 1 25) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let cols =
        Array.init n (fun _ ->
            let entries = Hashtbl.create 4 in
            Hashtbl.replace entries (Random.State.int st n) (1. +. Random.State.float st 5.);
            for _ = 2 to 1 + Random.State.int st 3 do
              Hashtbl.replace entries (Random.State.int st n) (Random.State.float st 4. -. 2.)
            done;
            Array.of_seq (Hashtbl.to_seq entries))
      in
      let basis = Array.init n (fun i -> i) in
      let dense_mat = Array.make_matrix n n 0. in
      Array.iteri (fun j col -> Array.iter (fun (i, v) -> dense_mat.(i).(j) <- v) col) cols;
      let dres =
        match Dense.lu_factorize dense_mat with
        | lu -> Some lu
        | exception Dense.Singular _ -> None
      in
      let sres =
        match sparse_factorize ~dim:n cols basis with
        | lu -> Some lu
        | exception Sparse_lu.Singular _ -> None
      in
      match (dres, sres) with
      | None, None -> true
      | Some dlu, Some slu ->
        let r = Array.init n (fun i -> Random.State.float st 2. -. 1. +. float_of_int (i mod 3)) in
        let close a b =
          let ok = ref true in
          Array.iteri (fun i v -> if abs_float (v -. b.(i)) > 1e-6 then ok := false) a;
          !ok
        in
        let d1 = Array.copy r and s1 = Array.copy r in
        Dense.lu_solve dlu d1;
        Sparse_lu.solve slu ~work:(Array.make n 0.) s1;
        let d2 = Array.copy r and s2 = Array.copy r in
        Dense.lu_solve_transposed dlu d2;
        Sparse_lu.solve_transposed slu ~work:(Array.make n 0.) s2;
        close d1 s1 && close d2 s2
      | _ ->
        (* Singularity thresholds can legitimately disagree on borderline
           matrices; only accept the mismatch when the matrix really is
           near-singular for the permissive side. *)
        QCheck.assume_fail ())

(* Factor -> solve -> residual: the LU's answer, substituted back into
   the original sparse system, must reproduce the right-hand side. The
   generated matrices are diagonally dominant, so factorization cannot
   legitimately fail and the residual bound is tight. *)
let prop_sparse_lu_residual =
  QCheck.Test.make ~count:200 ~name:"sparse LU factor/solve leaves a tiny residual"
    QCheck.(pair (int_range 1 30) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n |] in
      let cols =
        Array.init n (fun j ->
            let entries = Hashtbl.create 4 in
            Hashtbl.replace entries j (4. +. Random.State.float st 4.);
            for _ = 1 to Random.State.int st 4 do
              let i = Random.State.int st n in
              if i <> j then Hashtbl.replace entries i (Random.State.float st 2. -. 1.)
            done;
            Array.of_seq (Hashtbl.to_seq entries))
      in
      let basis = Array.init n (fun i -> i) in
      match sparse_factorize ~dim:n cols basis with
      | exception Sparse_lu.Singular _ -> false
      | lu ->
        let r = Array.init n (fun _ -> Random.State.float st 2. -. 1.) in
        let y = Array.copy r in
        Sparse_lu.solve lu ~work:(Array.make n 0.) y;
        (* B y = r, column-wise: residual_i = sum_k col_{basis k}(i) y_k - r_i *)
        let res = Array.map (fun v -> -.v) r in
        Array.iteri
          (fun k yk -> Array.iter (fun (i, v) -> res.(i) <- res.(i) +. (v *. yk)) cols.(basis.(k)))
          y;
        let ok_solve = Array.for_all (fun v -> abs_float v <= 1e-8) res in
        let rt = Array.init n (fun _ -> Random.State.float st 2. -. 1.) in
        let yt = Array.copy rt in
        Sparse_lu.solve_transposed lu ~work:(Array.make n 0.) yt;
        (* B^T y = r, row k of B^T being column basis.(k). *)
        let ok_transposed = ref true in
        Array.iteri
          (fun k _ ->
            let s = Array.fold_left (fun acc (i, v) -> acc +. (v *. yt.(i))) 0. cols.(basis.(k)) in
            if abs_float (s -. rt.(k)) > 1e-8 then ok_transposed := false)
          basis;
        ok_solve && !ok_transposed)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                               *)
(* ------------------------------------------------------------------ *)

let prop_pqueue_sorted =
  QCheck.Test.make ~count:200 ~name:"pqueue pops keys in ascending order"
    QCheck.(list (float_range (-1000.) 1000.))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k ()) keys;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (k, ()) -> if k < last then false else drain k
      in
      drain neg_infinity)

(* Model-based check under interleaved operations, including the lazy
   decrease-key idiom the branch & bound's bound heap relies on: a
   "decrease" re-pushes a live id under a smaller key, and pops skip
   entries whose key no longer matches the id's current key. The heap's
   visible behavior must match a reference map keyed by (key, id). *)
let prop_pqueue_model =
  let module M = Map.Make (struct
    type t = float * int

    let compare = compare
  end) in
  QCheck.Test.make ~count:300
    ~name:"pqueue matches a sorted-map model under push/pop/decrease interleavings"
    QCheck.(list (pair (int_range 0 2) (float_range 0. 1000.)))
    (fun ops ->
      let q = Pqueue.create () in
      let current : (int, float) Hashtbl.t = Hashtbl.create 16 in
      let model = ref M.empty in
      let next_id = ref 0 in
      let live () = Hashtbl.fold (fun id _ acc -> id :: acc) current [] in
      (* Pop, skipping stale entries exactly as the solver's bound heap
         does; returns the first entry whose key is the id's current one. *)
      let rec pop_valid () =
        match Pqueue.pop q with
        | None -> None
        | Some (k, id) -> (
          match Hashtbl.find_opt current id with
          | Some k' when k' = k -> Some (k, id)
          | _ -> pop_valid ())
      in
      List.for_all
        (fun (op, x) ->
          match op with
          | 0 ->
            let id = !next_id in
            incr next_id;
            Pqueue.push q x id;
            Hashtbl.replace current id x;
            model := M.add (x, id) () !model;
            true
          | 1 -> (
            match (pop_valid (), M.min_binding_opt !model) with
            | None, None -> true
            | Some (k, id), Some ((mk, _), ()) ->
              Hashtbl.remove current id;
              model := M.remove (k, id) !model;
              (* Equal keys may pop in any id order; only the key is
                 pinned by the heap contract. *)
              k = mk
            | Some _, None | None, Some _ -> false)
          | _ -> (
            match live () with
            | [] -> true
            | ids ->
              let id = List.nth ids (int_of_float x mod List.length ids) in
              let old = Hashtbl.find current id in
              let k' = old *. (x /. 1000.) in
              if k' < old then begin
                Pqueue.push q k' id;
                Hashtbl.replace current id k';
                model := M.add (k', id) () (M.remove (old, id) !model)
              end;
              true))
        ops)

(* ------------------------------------------------------------------ *)
(* Presolve unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_presolve_singleton_row () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" ~ub:10. () in
  let y = Problem.add_var p ~name:"y" ~ub:10. () in
  Problem.add_constr p (Linexpr.var ~coeff:2. x) Problem.Le 6.;
  Problem.add_constr p Linexpr.(add (var x) (var y)) Problem.Le 12.;
  match Presolve.run p with
  | Presolve.Proven_infeasible msg -> Alcotest.fail msg
  | Presolve.Reduced (q, stats) ->
    Alcotest.(check int) "rows removed" 1 stats.Presolve.rows_removed;
    Alcotest.(check int) "constraints left" 1 (Problem.num_constrs q);
    check_float "x ub tightened" 3. (Problem.var_info q x).Problem.v_ub

let test_presolve_detects_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" ~ub:1. () in
  Problem.add_constr p (Linexpr.var x) Problem.Ge 2.;
  match Presolve.run p with
  | Presolve.Proven_infeasible _ -> ()
  | Presolve.Reduced _ -> Alcotest.fail "expected infeasibility"

let test_presolve_integer_rounding () =
  let p = Problem.create () in
  let x = Problem.add_var p ~name:"x" ~kind:Problem.Integer ~lb:0.3 ~ub:4.7 () in
  match Presolve.run p with
  | Presolve.Proven_infeasible msg -> Alcotest.fail msg
  | Presolve.Reduced (q, _) ->
    check_float "lb rounded" 1. (Problem.var_info q x).Problem.v_lb;
    check_float "ub rounded" 4. (Problem.var_info q x).Problem.v_ub

let presolve_tests =
  [
    Alcotest.test_case "singleton row" `Quick test_presolve_singleton_row;
    Alcotest.test_case "detects infeasible" `Quick test_presolve_detects_infeasible;
    Alcotest.test_case "integer bound rounding" `Quick test_presolve_integer_rounding;
  ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bb_matches_brute_force;
      prop_bb_matches_general_oracle;
      prop_simplex_beats_grid;
      prop_presolve_preserves_optimum;
      prop_cuts_sound;
      prop_product_matches_semantics;
      prop_lp_roundtrip;
      prop_pqueue_sorted;
      prop_pqueue_model;
      prop_sparse_dense_lu_agree;
      prop_sparse_lu_residual;
    ]

let () =
  Alcotest.run "milp"
    [
      ("simplex", simplex_tests);
      ("branch-and-bound", bb_tests);
      ( "linearize",
        [
          Alcotest.test_case "product via objective" `Quick test_product_linearization;
          Alcotest.test_case "bool and/or" `Quick test_bool_and_or;
        ] );
      ("lp-format", lp_format_tests);
      ("mps-format", [ Alcotest.test_case "structure" `Quick test_mps_structure ]);
      ("presolve", presolve_tests);
      ("properties", qcheck_tests);
    ]
