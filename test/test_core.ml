(* Tests for the paper's contribution: threshold ladders, the MILP
   encoding, cost objectives, the size analysis, and end-to-end MILP
   optimization against the DP ground truth. *)

module Thresholds = Joinopt.Thresholds
module Encoding = Joinopt.Encoding
module Cost_enc = Joinopt.Cost_enc
module Optimizer = Joinopt.Optimizer
module Analysis = Joinopt.Analysis
module Workload = Relalg.Workload
module Join_graph = Relalg.Join_graph
module Query = Relalg.Query
module Catalog = Relalg.Catalog
module Predicate = Relalg.Predicate
module Plan = Relalg.Plan
module Cost_model = Relalg.Cost_model
module Problem = Milp.Problem

let check_float = Alcotest.(check (float 1e-9))

let trirel () =
  Query.create
    ~predicates:[ Predicate.binary 0 1 0.1 ]
    [ Catalog.table "R" 10.; Catalog.table "S" 1000.; Catalog.table "T" 100. ]

let config_of ?(formulation = Encoding.Reduced) precision =
  { Encoding.default_config with Encoding.precision; formulation }

(* ------------------------------------------------------------------ *)
(* Threshold ladders                                                    *)
(* ------------------------------------------------------------------ *)

let test_ladder_count () =
  let l = Thresholds.make ~max_card:1e6 Thresholds.Medium in
  (* tolerance 10, range 1e6: 6 thresholds at 10^1..10^6 *)
  Alcotest.(check int) "count" 6 (Thresholds.num_thresholds l);
  check_float "first" 10. l.Thresholds.thetas.(0);
  check_float "last" 1e6 l.Thresholds.thetas.(5)

let test_ladder_monotone_reached () =
  let l = Thresholds.make ~max_card:1e8 Thresholds.High in
  let hits = Thresholds.reached l 4.2 in
  (* Once a threshold is missed, all higher ones are missed too. *)
  let ok = ref true in
  for r = 1 to Array.length hits - 1 do
    if hits.(r) && not hits.(r - 1) then ok := false
  done;
  Alcotest.(check bool) "monotone" true !ok

let prop_ladder_approximation_quality =
  QCheck.Test.make ~count:200 ~name:"staircase within tolerance of the true cardinality"
    QCheck.(pair (float_range 1. 12.) (int_range 0 2))
    (fun (log_card, prec_idx) ->
      let precision =
        match prec_idx with 0 -> Thresholds.Low | 1 -> Thresholds.Medium | _ -> Thresholds.High
      in
      let tol = Thresholds.tolerance precision in
      let l = Thresholds.make ~max_card:1e12 precision in
      let approx = Thresholds.approx_card l log_card in
      let true_card = 10. ** log_card in
      (* Central rounding: within sqrt(tol) on both sides, except below
         the first threshold where the staircase is 0. *)
      if log_card < l.Thresholds.log10_thetas.(0) then approx = 0.
      else
        approx <= true_card *. sqrt tol *. (1. +. 1e-9)
        && approx >= true_card /. tol *. (1. -. 1e-9))

let prop_levels_match_fn =
  QCheck.Test.make ~count:100 ~name:"levels staircase equals approx_fn"
    (QCheck.make QCheck.Gen.(float_range 0.5 11.5))
    (fun log_card ->
      let l = Thresholds.make ~max_card:1e12 Thresholds.Medium in
      let g c = 3. *. Relalg.Cost_model.pages Relalg.Cost_model.default_page_model c in
      let levels = Thresholds.levels l g in
      let hits = Thresholds.reached l log_card in
      let sum = ref 0. in
      Array.iteri (fun r hit -> if hit then sum := !sum +. levels.(r)) hits;
      abs_float (!sum -. Thresholds.approx_fn l g log_card) <= 1e-6 *. max 1. !sum)

(* ------------------------------------------------------------------ *)
(* Encoding structure                                                   *)
(* ------------------------------------------------------------------ *)

let prop_analysis_matches_measured =
  QCheck.Test.make ~count:60 ~name:"closed-form size analysis matches the built MILP"
    QCheck.(quad (int_range 2 9) (int_range 0 5000) (int_range 0 2) bool)
    (fun (n, seed, shape_idx, full) ->
      let shape =
        match shape_idx with 0 -> Join_graph.Chain | 1 -> Join_graph.Star | _ -> Join_graph.Cycle
      in
      let q = Workload.generate ~seed ~shape ~num_tables:n () in
      let config =
        {
          Encoding.default_config with
          Encoding.formulation = (if full then Encoding.Full_paper else Encoding.Reduced);
        }
      in
      let enc = Encoding.build ~config q in
      let predicted = Analysis.predicted ~config q in
      let measured = Analysis.measured enc in
      predicted = measured)

let prop_assignment_feasible =
  QCheck.Test.make ~count:50 ~name:"honest order assignments satisfy the MILP"
    QCheck.(quad (int_range 2 7) (int_range 0 5000) (int_range 0 2) bool)
    (fun (n, seed, shape_idx, full) ->
      let shape =
        match shape_idx with 0 -> Join_graph.Chain | 1 -> Join_graph.Star | _ -> Join_graph.Cycle
      in
      let q = Workload.generate ~seed ~shape ~num_tables:n () in
      let config =
        {
          Encoding.default_config with
          Encoding.formulation = (if full then Encoding.Full_paper else Encoding.Reduced);
        }
      in
      let enc = Encoding.build ~config q in
      let cost = Cost_enc.install enc (Cost_enc.Fixed_operator Plan.Hash_join) in
      List.for_all
        (fun order ->
          let x = Encoding.assignment_of_order enc order in
          Cost_enc.extend_assignment cost order x;
          match Problem.check_feasible enc.Encoding.problem (fun v -> x.(v)) with
          | Ok _ -> Encoding.order_of_assignment enc (fun v -> x.(v)) = order
          | Error _ -> false)
        (List.filteri (fun i _ -> i < 6) (Plan.all_orders n)))

(* The first row the identity order's honest assignment violates on an
   [n]-table cycle query, under each cost spec in turn. *)
let honest_violation (n, seed) =
  let q = Workload.generate ~seed ~shape:Join_graph.Cycle ~num_tables:n () in
  let order = Array.init n (fun i -> i) in
  List.find_map
    (fun spec ->
      let enc = Encoding.build q in
      let cost = Cost_enc.install enc spec in
      let x = Encoding.assignment_of_order enc order in
      Cost_enc.extend_assignment cost order x;
      match Problem.check_feasible enc.Encoding.problem (fun v -> x.(v)) with
      | Ok _ -> None
      | Error msg -> Some (Cost_enc.spec_to_string spec ^ ": " ^ msg))
    [
      Cost_enc.Cout;
      Cost_enc.Fixed_operator Plan.Hash_join;
      Cost_enc.Fixed_operator Plan.Sort_merge_join;
      Cost_enc.Fixed_operator Plan.Block_nested_loop;
      Cost_enc.Choose_operator [ Plan.Hash_join; Plan.Sort_merge_join; Plan.Block_nested_loop ];
    ]

let prop_assignment_feasible_all_costs =
  QCheck.Test.make ~count:30 ~name:"honest assignments feasible under every cost spec"
    QCheck.(pair (int_range 2 6) (int_range 0 5000))
    (fun draw -> honest_violation draw = None)

(* Every draw of the property above that once failed, all under
   Choose_operator: an operator-cost product row cancels two terms near
   1e17, and the honest assignment summed one cost's staircase in
   another order than its definition row does. *)
let test_honest_choose_regressions () =
  List.iter
    (fun (n, seed) ->
      Alcotest.(check (option string))
        (Printf.sprintf "n=%d seed=%d" n seed)
        None
        (honest_violation (n, seed)))
    [
      (5, 1665); (5, 2385); (6, 48); (6, 692); (6, 1563); (6, 1976); (6, 2159); (6, 2502);
      (6, 2693); (6, 3055); (6, 3394); (6, 3826); (6, 3895); (6, 4670); (6, 4776); (6, 4965);
    ]

let test_log10_outer_card_matches_estimator () =
  let q = trirel () in
  let enc = Encoding.build q in
  let e = Relalg.Card.estimator q in
  List.iter
    (fun order ->
      let plan = Plan.of_order order in
      let lc = Encoding.log10_outer_card enc order 1 in
      let expect = Relalg.Card.log10_subset_card e (Plan.prefix_mask plan 2) in
      check_float "log card" expect lc)
    (Plan.all_orders 3)

(* The MILP objective for an order approximates its true cost within the
   precision guarantee: staircase quantities are within sqrt(tol) each
   way, so per-join costs are too. *)
let prop_objective_tracks_true_cost =
  QCheck.Test.make ~count:40 ~name:"MILP objective within tolerance of exact hash cost"
    QCheck.(pair (int_range 3 6) (int_range 0 5000))
    (fun (n, seed) ->
      let q = Workload.generate ~seed ~shape:Join_graph.Chain ~num_tables:n () in
      let enc = Encoding.build ~config:(config_of Thresholds.High) q in
      let cost = Cost_enc.install enc (Cost_enc.Fixed_operator Plan.Hash_join) in
      let tol = sqrt (Thresholds.tolerance Thresholds.High) *. 1.2 in
      let ladder = (Cost_enc.encoding cost).Encoding.ladder in
      let top_log =
        ladder.Thresholds.log10_thetas.(Thresholds.num_thresholds ladder - 1)
      in
      List.for_all
        (fun order ->
          let obj = Cost_enc.objective_of_order cost order in
          let plan =
            Plan.of_order ~operators:(Array.make (n - 1) Plan.Hash_join) order
          in
          let truth = Cost_model.plan_cost q plan in
          (* Plans with an intermediate result beyond the ladder's range
             saturate and are deliberately underestimated (they are
             dominated anyway), so only the upper guarantee applies. *)
          let saturated =
            List.exists
              (fun j -> Encoding.log10_outer_card (Cost_enc.encoding cost) order j > top_log)
              (List.init (n - 2) (fun j -> j + 1))
          in
          obj <= truth *. tol && (saturated || obj >= truth /. tol))
        (List.filteri (fun i _ -> i < 10) (Plan.all_orders n)))

let test_cout_objective_matches_dp_cout () =
  let q = trirel () in
  let enc = Encoding.build ~config:(config_of (Thresholds.Custom 1.05)) q in
  let cost = Cost_enc.install enc Cost_enc.Cout in
  List.iter
    (fun order ->
      let obj = Cost_enc.objective_of_order cost order in
      let truth = Cost_model.plan_cost ~metric:Cost_model.Cout q (Plan.of_order order) in
      (* At near-exact precision the staircase error is ~5%. *)
      Alcotest.(check bool)
        (Printf.sprintf "order %s" (String.concat "" (List.map string_of_int (Array.to_list order))))
        true
        (obj <= truth *. 1.1 && obj >= truth /. 1.1))
    (Plan.all_orders 3)

(* ------------------------------------------------------------------ *)
(* End-to-end optimization                                              *)
(* ------------------------------------------------------------------ *)

let prop_milp_plan_quality =
  QCheck.Test.make ~count:15 ~name:"MILP-optimal plans within tolerance^2 of DP optimum"
    QCheck.(triple (int_range 3 5) (int_range 0 5000) (int_range 0 2))
    (fun (n, seed, shape_idx) ->
      let shape =
        match shape_idx with 0 -> Join_graph.Chain | 1 -> Join_graph.Star | _ -> Join_graph.Cycle
      in
      let q = Workload.generate ~seed ~shape ~num_tables:n () in
      let config =
        Optimizer.default_config |> Optimizer.with_precision Thresholds.High
        |> Optimizer.with_time_limit 20.
      in
      let r = Optimizer.optimize ~config q in
      match (r.Optimizer.status, r.Optimizer.plan, r.Optimizer.true_cost) with
      | Milp.Branch_bound.Optimal, Some plan, Some true_cost ->
        let dp_cost =
          match Dp_opt.Selinger.optimize q with
          | Dp_opt.Selinger.Complete c -> c.Dp_opt.Selinger.cost
          | Dp_opt.Selinger.Timed_out _ -> QCheck.assume_fail ()
        in
        (* The MILP optimizes a staircase approximation with per-side
           error sqrt(tol): its chosen plan's true cost is within tol of
           the optimum. *)
        Result.is_ok (Plan.validate q plan)
        && true_cost <= dp_cost *. Thresholds.tolerance Thresholds.High *. 1.05
      | (Milp.Branch_bound.Feasible | Milp.Branch_bound.Unknown), _, _ ->
        (* Ran out of budget before proving optimality: not a failure of
           the encoding; skip. *)
        QCheck.assume_fail ()
      | _ -> false)

let test_paper_example_end_to_end () =
  let q = trirel () in
  let config =
    Optimizer.default_config |> Optimizer.with_precision Thresholds.High
    |> Optimizer.with_time_limit 20.
  in
  let r = Optimizer.optimize ~config q in
  (match r.Optimizer.plan with
  | Some plan ->
    (* The optimal left-deep hash plan joins R and S first. *)
    let dp_cost =
      match Dp_opt.Selinger.optimize q with
      | Dp_opt.Selinger.Complete c -> c.Dp_opt.Selinger.cost
      | Dp_opt.Selinger.Timed_out _ -> Alcotest.fail "DP timed out on 3 tables"
    in
    (match r.Optimizer.true_cost with
    | Some tc -> check_float "found the true optimum" dp_cost tc
    | None -> Alcotest.fail "no cost");
    Alcotest.(check bool) "valid" true (Result.is_ok (Plan.validate q plan))
  | None -> Alcotest.fail "no plan");
  Alcotest.(check bool) "has final trace" true (r.Optimizer.trace <> [])

let test_anytime_trace_semantics () =
  let q = Workload.generate ~seed:11 ~shape:Join_graph.Star ~num_tables:6 () in
  let config =
    Optimizer.default_config |> Optimizer.with_precision Thresholds.Medium
    |> Optimizer.with_time_limit 20.
  in
  let r = Optimizer.optimize ~config q in
  (* Incumbent objectives never increase; bounds never decrease. *)
  let rec walk last_inc last_bound = function
    | [] -> ()
    | tp :: rest ->
      (match (last_inc, tp.Optimizer.tp_objective) with
      | Some prev, Some cur ->
        Alcotest.(check bool) "incumbent non-increasing" true (cur <= prev +. 1e-9)
      | _ -> ());
      Alcotest.(check bool) "bound non-decreasing" true
        (tp.Optimizer.tp_bound >= last_bound -. 1e-9);
      walk
        (match tp.Optimizer.tp_objective with Some v -> Some v | None -> last_inc)
        tp.Optimizer.tp_bound rest
  in
  walk None neg_infinity r.Optimizer.trace;
  (* The greedy MIP start means a plan exists from the first record. *)
  match r.Optimizer.trace with
  | first :: _ ->
    Alcotest.(check bool) "incumbent from the start" true (first.Optimizer.tp_objective <> None)
  | [] -> Alcotest.fail "empty trace"

let test_operator_selection_beats_fixed () =
  (* A query where operand sizes make different operators attractive for
     different joins: the Choose_operator objective can only be <= the
     best single fixed operator's objective. *)
  let q = Workload.generate ~seed:3 ~shape:Join_graph.Chain ~num_tables:4 () in
  let order = Dp_opt.Greedy.order q in
  let objective_for spec =
    let enc = Encoding.build ~config:(config_of Thresholds.High) q in
    let cost = Cost_enc.install enc spec in
    Cost_enc.objective_of_order cost order
  in
  let all = [ Plan.Hash_join; Plan.Sort_merge_join; Plan.Block_nested_loop ] in
  let choose = objective_for (Cost_enc.Choose_operator all) in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        ("choose <= fixed " ^ Plan.operator_to_string op)
        true
        (choose <= objective_for (Cost_enc.Fixed_operator op) +. 1e-6))
    all

let test_correlated_group_encoding () =
  (* The encoding's cardinality for a full prefix must match the
     correlation-aware estimator. *)
  let tables = [ Catalog.table "A" 100.; Catalog.table "B" 100.; Catalog.table "C" 100. ] in
  let predicates = [ Predicate.binary 0 1 0.1; Predicate.binary 1 2 0.1 ] in
  let correlations = [ Predicate.correlation ~members:[ 0; 1 ] ~correction:2. ] in
  let q = Query.create ~predicates ~correlations tables in
  let enc = Encoding.build q in
  let e = Relalg.Card.estimator q in
  List.iter
    (fun order ->
      let plan = Plan.of_order order in
      let lc = Encoding.log10_outer_card enc order 1 in
      let expect = Relalg.Card.log10_subset_card e (Plan.prefix_mask plan 2) in
      check_float "group-aware log card" expect lc;
      (* And the honest assignment stays feasible. *)
      let x = Encoding.assignment_of_order enc order in
      match Problem.check_feasible enc.Encoding.problem (fun v -> x.(v)) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    (Plan.all_orders 3)

(* ------------------------------------------------------------------ *)
(* Section 5 extensions                                                 *)
(* ------------------------------------------------------------------ *)

module Ext_expensive = Joinopt.Ext_expensive
module Ext_orders = Joinopt.Ext_orders
module Ext_projection = Joinopt.Ext_projection

let udf_query eval_cost =
  Query.create
    ~predicates:
      [
        Predicate.binary ~eval_cost 0 1 0.5;
        Predicate.binary 1 2 1e-6;
        Predicate.binary 2 3 0.04;
      ]
    [
      Catalog.table "orders" 1_000_000.;
      Catalog.table "lineitem" 4_000_000.;
      Catalog.table "supplier" 10_000.;
      Catalog.table "nation" 25.;
    ]

let prop_expensive_assignments_feasible =
  QCheck.Test.make ~count:25 ~name:"expensive-predicate assignments feasible for any schedule"
    QCheck.(pair (int_range 0 10_000) (int_range 0 5))
    (fun (seed, postpone) ->
      let q =
        let base = Workload.generate ~seed ~shape:Join_graph.Chain ~num_tables:4 () in
        (* Re-price the first predicate. *)
        Query.create
          ~predicates:
            (Array.to_list base.Query.predicates
            |> List.mapi (fun i p ->
                   if i = 0 then
                     Predicate.binary ~eval_cost:1.5
                       (List.nth p.Predicate.pred_tables 0)
                       (List.nth p.Predicate.pred_tables 1)
                       p.Predicate.selectivity
                   else p))
          (Array.to_list base.Query.tables)
      in
      let enc = Encoding.build ~config:(config_of Thresholds.Medium) q in
      let t = Ext_expensive.install enc in
      let order = [| 0; 1; 2; 3 |] in
      let schedule = Ext_expensive.earliest_schedule t order in
      (* Postpone the priced predicate by a random amount within range. *)
      schedule.(0) <- min 2 (schedule.(0) + (postpone mod 3));
      let x = Ext_expensive.assignment_of t order schedule in
      Result.is_ok (Problem.check_feasible enc.Encoding.problem (fun v -> x.(v))))

let test_expensive_postpones_when_worth_it () =
  (* With a huge per-tuple cost the encoding must prefer the postponing
     schedule on the canonical plan. *)
  let q = udf_query 50. in
  let enc = Encoding.build ~config:(config_of Thresholds.High) q in
  let t = Ext_expensive.install enc in
  let order = [| 0; 1; 2; 3 |] in
  let early = Ext_expensive.earliest_schedule t order in
  let late = Array.copy early in
  late.(0) <- 2;
  Alcotest.(check bool) "postponing is cheaper in the MILP objective" true
    (Ext_expensive.objective_of t order late < Ext_expensive.objective_of t order early);
  (* And end-to-end the solver should not do worse than the greedy
     push-down start. *)
  let result, outcome =
    Ext_expensive.optimize ~config:(config_of Thresholds.High)
      ~solver:(Milp.Solver.with_time_limit 20. { Milp.Solver.default_params with Milp.Solver.cut_rounds = 0 })
      q
  in
  match result with
  | Some (_plan, schedule, _cost) ->
    Alcotest.(check bool) "found a solution" true
      (outcome.Milp.Branch_bound.o_objective <> None);
    Alcotest.(check bool) "schedule within range" true
      (Array.for_all (fun j -> j >= 0 && j <= 2) schedule)
  | None -> Alcotest.fail "no plan"

let prop_orders_assignments_feasible =
  QCheck.Test.make ~count:25 ~name:"interesting-order assignments feasible"
    QCheck.(pair (int_range 0 10_000) (int_range 0 23))
    (fun (seed, order_idx) ->
      let q = Workload.generate ~seed ~shape:Join_graph.Star ~num_tables:4 () in
      let enc = Encoding.build ~config:(config_of Thresholds.Medium) q in
      let t = Ext_orders.install ~sorted_tables:[ 0; 2 ] enc in
      let order = List.nth (Plan.all_orders 4) order_idx in
      let variants, _ = Ext_orders.best_variants t order in
      let x = Ext_orders.assignment_of t order variants in
      Result.is_ok (Problem.check_feasible enc.Encoding.problem (fun v -> x.(v))))

let test_orders_end_to_end () =
  let q = Workload.generate ~seed:5 ~shape:Join_graph.Chain ~num_tables:5 () in
  let config = config_of Thresholds.High in
  let result, _ =
    Ext_orders.optimize ~config ~sorted_tables:[ 0; 2 ]
      ~solver:(Milp.Solver.with_time_limit 20. { Milp.Solver.default_params with Milp.Solver.cut_rounds = 0 })
      q
  in
  match result with
  | Some (order, variants, cost) ->
    (* The returned combination must be exactly costable (validates
       applicability) and within the approximation tolerance of the
       exhaustive best over all orders and variants. *)
    let enc = Encoding.build ~config q in
    let t = Ext_orders.install ~sorted_tables:[ 0; 2 ] enc in
    let replay = Ext_orders.true_cost t order variants in
    Alcotest.(check (float 1e-6)) "cost replay" cost replay;
    let best = ref infinity in
    List.iter
      (fun o ->
        let _, c = Ext_orders.best_variants t o in
        if c < !best then best := c)
      (Plan.all_orders 5);
    Alcotest.(check bool) "within tolerance of exhaustive best" true
      (cost <= !best *. Thresholds.tolerance Thresholds.High *. 1.5)
  | None -> Alcotest.fail "no plan"

let projection_query () =
  let mk name card ncols =
    Catalog.table
      ~columns:
        (List.init ncols (fun i ->
             { Catalog.col_name = Printf.sprintf "%s_c%d" name i; col_bytes = 8. }))
      name card
  in
  Query.create
    ~predicates:
      [ Predicate.binary 0 1 0.001; Predicate.binary 1 2 0.01; Predicate.binary 2 3 0.05 ]
    ~output_columns:[ (0, { Catalog.col_name = "a_c0"; col_bytes = 8. }) ]
    [ mk "a" 5000. 10; mk "b" 20000. 4; mk "c" 300. 6; mk "d" 1000. 2 ]

let prop_projection_assignments_feasible =
  QCheck.Test.make ~count:24 ~name:"projection assignments feasible"
    (QCheck.int_range 0 23)
    (fun order_idx ->
      let q = projection_query () in
      let enc = Encoding.build ~config:(config_of Thresholds.Medium) q in
      let t = Ext_projection.install enc in
      let order = List.nth (Plan.all_orders 4) order_idx in
      let x = Ext_projection.assignment_of t order in
      Result.is_ok (Problem.check_feasible enc.Encoding.problem (fun v -> x.(v))))

(* ------------------------------------------------------------------ *)
(* Warm-start translation (MIP starts)                                  *)
(* ------------------------------------------------------------------ *)

(* The warm-start translation is query-blind: it rebuilds the encoder's
   assignment from the [joinopt.*] metadata channel alone. The property
   pins it three ways: the rebuilt point certifies against the problem,
   decoding recovers the plan (order and operators), and — for the cost
   layers whose auxiliaries the encoder fills by the same closed forms
   (Cout and every fixed operator, BNL included) — the translation is
   bit-exact against [Encoding.assignment_of_order] +
   [Cost_enc.extend_assignment]. Under [Choose_operator] the linearized
   products are evaluated from the definition rows, which can differ
   from the encoder's arithmetic in the last ulps, so there the
   certificate and the decode are the contract. *)
let prop_warm_start_roundtrip =
  QCheck.Test.make ~count:30
    ~name:"warm-start translation certifies and round-trips the plan"
    QCheck.(quad (int_range 2 6) (int_range 0 5000) (int_range 0 2) bool)
    (fun (n, seed, shape_idx, full) ->
      let shape =
        match shape_idx with 0 -> Join_graph.Chain | 1 -> Join_graph.Star | _ -> Join_graph.Cycle
      in
      let q = Workload.generate ~seed ~shape ~num_tables:n () in
      let config =
        {
          Encoding.default_config with
          Encoding.formulation = (if full then Encoding.Full_paper else Encoding.Reduced);
        }
      in
      let order = Array.init n (fun i -> (i + seed) mod n) in
      List.for_all
        (fun (spec, exact) ->
          let enc = Encoding.build ~config q in
          let cost = Cost_enc.install enc spec in
          let x_ref = Encoding.assignment_of_order enc order in
          Cost_enc.extend_assignment cost order x_ref;
          let plan_ref = Cost_enc.decode_operators cost (fun v -> x_ref.(v)) order in
          let operators = Array.map Plan.operator_to_string plan_ref.Plan.operators in
          match
            Milp.Warm_start.assignment_of_plan ~operators enc.Encoding.problem order
          with
          | Error _ -> false
          | Ok x ->
            (match Milp.Certify.check_point enc.Encoding.problem (fun v -> x.(v)) with
            | Milp.Certify.Certified _ -> true
            | Milp.Certify.Rejected _ -> false)
            && Encoding.order_of_assignment enc (fun v -> x.(v)) = order
            && Cost_enc.decode_operators cost (fun v -> x.(v)) order = plan_ref
            && ((not exact) || x = x_ref))
        [
          (Cost_enc.Cout, true);
          (Cost_enc.Fixed_operator Plan.Hash_join, true);
          (Cost_enc.Fixed_operator Plan.Sort_merge_join, true);
          (Cost_enc.Fixed_operator Plan.Block_nested_loop, true);
          ( Cost_enc.Choose_operator
              [ Plan.Hash_join; Plan.Sort_merge_join; Plan.Block_nested_loop ],
            false );
        ])

let prop_warm_start_expensive_roundtrip =
  QCheck.Test.make ~count:20
    ~name:"warm-start translation covers the expensive-predicate extension"
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let q =
        let base = Workload.generate ~seed ~shape:Join_graph.Chain ~num_tables:4 () in
        Query.create
          ~predicates:
            (Array.to_list base.Query.predicates
            |> List.mapi (fun i p ->
                   if i = 0 then
                     Predicate.binary ~eval_cost:1.5
                       (List.nth p.Predicate.pred_tables 0)
                       (List.nth p.Predicate.pred_tables 1)
                       p.Predicate.selectivity
                   else p))
          (Array.to_list base.Query.tables)
      in
      let enc = Encoding.build ~config:(config_of Thresholds.Medium) q in
      let (_ : Ext_expensive.t) = Ext_expensive.install enc in
      let order = Array.init 4 (fun i -> (i + seed) mod 4) in
      match Milp.Warm_start.assignment_of_plan enc.Encoding.problem order with
      | Error _ -> false
      | Ok x ->
        (match Milp.Certify.check_point enc.Encoding.problem (fun v -> x.(v)) with
        | Milp.Certify.Certified _ -> true
        | Milp.Certify.Rejected _ -> false)
        && Encoding.order_of_assignment enc (fun v -> x.(v)) = order)

(* Interesting orders and projection add variables the translation does
   not reconstruct; it must refuse cleanly rather than hand the solver a
   half-filled point (which certification would then reject anyway). *)
let prop_warm_start_refuses_uncovered_extensions =
  QCheck.Test.make ~count:10 ~name:"warm-start translation refuses uncovered extensions"
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let order = [| 0; 1; 2; 3 |] in
      let refused q install =
        let enc = Encoding.build ~config:(config_of Thresholds.Medium) q in
        install enc;
        Result.is_error (Milp.Warm_start.assignment_of_plan enc.Encoding.problem order)
      in
      refused
        (Workload.generate ~seed ~shape:Join_graph.Star ~num_tables:4 ())
        (fun enc -> ignore (Ext_orders.install ~sorted_tables:[ 0; 2 ] enc))
      && refused (projection_query ()) (fun enc -> ignore (Ext_projection.install enc)))

let test_projection_end_to_end () =
  let q = projection_query () in
  let config = config_of Thresholds.High in
  let result, _ =
    Ext_projection.optimize ~config
      ~solver:(Milp.Solver.with_time_limit 20. { Milp.Solver.default_params with Milp.Solver.cut_rounds = 0 })
      q
  in
  match result with
  | Some (plan, cost) ->
    let enc = Encoding.build ~config q in
    let t = Ext_projection.install enc in
    let best = ref infinity in
    List.iter
      (fun o ->
        let c = Ext_projection.true_cost t o in
        if c < !best then best := c)
      (Plan.all_orders 4);
    Alcotest.(check bool) "valid" true (Result.is_ok (Plan.validate q plan));
    Alcotest.(check bool) "within tolerance of exhaustive best" true
      (cost <= !best *. Thresholds.tolerance Thresholds.High)
  | None -> Alcotest.fail "no plan"

let test_projection_drops_predicate_columns () =
  let q = projection_query () in
  let enc = Encoding.build ~config:(config_of Thresholds.Medium) q in
  let t = Ext_projection.install enc in
  (* Order a,b,c,d: after join 1 the a-b predicate is applied, so b's
     first column is gone unless still needed by the b-c predicate. *)
  let kept2 = Ext_projection.kept_columns t [| 0; 1; 2; 3 |] 2 in
  (* a_c0 is an output column and must survive. *)
  Alcotest.(check bool) "output column kept" true (List.mem (0, 0) kept2);
  (* b's non-first columns never appear. *)
  Alcotest.(check bool) "unneeded columns dropped" true
    (not (List.exists (fun (t', c') -> t' = 1 && c' > 0) kept2))

(* ------------------------------------------------------------------ *)
(* Experiment harnesses                                                 *)
(* ------------------------------------------------------------------ *)

module Experiments = Joinopt.Experiments

let test_figure1_shape () =
  let config =
    {
      Experiments.default_fig1 with
      Experiments.f1_sizes = [ 6; 10 ];
      f1_queries_per_size = 5;
    }
  in
  let rows = Experiments.figure1 ~config () in
  Alcotest.(check int) "rows" 6 (List.length rows);
  (* Sizes grow with precision and with table count. *)
  let find n p =
    List.find (fun r -> r.Experiments.f1_tables = n && r.Experiments.f1_precision = p) rows
  in
  let low6 = find 6 Thresholds.Low and high6 = find 6 Thresholds.High in
  let low10 = find 10 Thresholds.Low in
  Alcotest.(check bool) "high > low" true
    (high6.Experiments.f1_median_vars > low6.Experiments.f1_median_vars);
  Alcotest.(check bool) "10 > 6" true
    (low10.Experiments.f1_median_vars > low6.Experiments.f1_median_vars);
  (* Determinism. *)
  let rows' = Experiments.figure1 ~config () in
  Alcotest.(check bool) "deterministic" true (rows = rows')

let test_figure2_shape () =
  let config =
    {
      Experiments.default_fig2 with
      Experiments.f2_sizes = [ 4 ];
      f2_shapes = [ Join_graph.Star ];
      f2_queries_per_cell = 2;
      f2_budget = 2.;
      f2_sample_times = [ 1.; 2. ];
    }
  in
  let rows = Experiments.figure2 ~config () in
  Alcotest.(check int) "rows = 4 algorithms" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "two samples" 2 (List.length r.Experiments.f2_factors);
      (* 4-table queries are easy: everyone should reach factor 1 by 2 s. *)
      match List.nth r.Experiments.f2_factors 1 with
      | _, Some f -> Alcotest.(check bool) "factor ~1" true (f < 1.2)
      | _, None -> Alcotest.fail "expected a factor at the final sample")
    rows

(* The factor hand-off branch & bound makes from a node to its children:
   after a bound tightening on a fractional variable of a join-ordering
   relaxation, a warm re-solve given the parent's factor must be
   bit-for-bit the warm re-solve that factorizes the same basis itself —
   a factorization is a pure function of the basis, so reusing one may
   save work but never change a pivot. *)
let prop_factor_handoff_identical =
  QCheck.Test.make ~count:40 ~name:"warm re-solve with the parent's factor is bit-identical"
    QCheck.(triple (int_range 0 3) (int_range 3 6) (int_range 0 5000))
    (fun (shape, n, seed) ->
      let shape = [| Join_graph.Chain; Join_graph.Star; Join_graph.Cycle; Join_graph.Clique |].(shape) in
      let q = Workload.generate ~seed ~shape ~num_tables:n () in
      let enc = Encoding.build q in
      ignore (Cost_enc.install enc (Cost_enc.Fixed_operator Plan.Hash_join));
      let sf = Milp.Stdform.of_problem enc.Encoding.problem in
      let lb, ub = Milp.Stdform.bounds sf in
      let root = Milp.Simplex.solve sf ~lb ~ub in
      QCheck.assume (root.Milp.Simplex.status = Milp.Simplex.Optimal);
      let frac j =
        let v = root.Milp.Simplex.x.(j) in
        sf.Milp.Stdform.integer.(j) && abs_float (v -. Float.round v) > 1e-5
      in
      let j = List.find_opt frac (List.init sf.Milp.Stdform.nstruct Fun.id) in
      QCheck.assume (j <> None);
      let j = Option.get j in
      if Option.is_none root.Milp.Simplex.factor then
        QCheck.Test.fail_report "an optimal root LP carried no factor";
      let bits a = Array.map Int64.bits_of_float a in
      let same (a : Milp.Simplex.result) (b : Milp.Simplex.result) =
        a.Milp.Simplex.status = b.Milp.Simplex.status
        && Int64.bits_of_float a.Milp.Simplex.objective = Int64.bits_of_float b.Milp.Simplex.objective
        && bits a.Milp.Simplex.x = bits b.Milp.Simplex.x
        && a.Milp.Simplex.iters = b.Milp.Simplex.iters
        && a.Milp.Simplex.basis = b.Milp.Simplex.basis
      in
      let warm = (root.Milp.Simplex.basis, root.Milp.Simplex.vstatus) in
      let x = root.Milp.Simplex.x.(j) in
      List.for_all
        (fun (lb, ub) ->
          let handed = Milp.Simplex.solve ~warm ?factor:root.Milp.Simplex.factor sf ~lb ~ub in
          let own = Milp.Simplex.solve ~warm sf ~lb ~ub in
          same handed own)
        [
          (lb, Array.mapi (fun k u -> if k = j then floor x else u) ub);
          (Array.mapi (fun k l -> if k = j then ceil x else l) lb, ub);
        ])

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_factor_handoff_identical;
      prop_ladder_approximation_quality;
      prop_levels_match_fn;
      prop_analysis_matches_measured;
      prop_assignment_feasible;
      prop_assignment_feasible_all_costs;
      prop_objective_tracks_true_cost;
      prop_milp_plan_quality;
      prop_expensive_assignments_feasible;
      prop_orders_assignments_feasible;
      prop_projection_assignments_feasible;
      prop_warm_start_roundtrip;
      prop_warm_start_expensive_roundtrip;
      prop_warm_start_refuses_uncovered_extensions;
    ]

(* ------------------------------------------------------------------ *)
(* Pinned search work                                                   *)
(* ------------------------------------------------------------------ *)

(* Twenty fixed queries solved at the default greedy seed on one domain
   with no binding limit: the certified objective (exact bits), the
   branch & bound node count and the simplex iteration total are a
   deterministic function of the code, so any change to pivot choice,
   search order or floating-point summation order shows up here. A
   refactor of the solver kernel must leave every triple unchanged; a
   deliberate search change must re-pin them and say why. *)
let pinned_work =
  [
    (100, "0x1.e24fp+16", 71, 324);  (* chain 5 *)
    (101, "0x1.2a8p+10", 117, 598);  (* star 5 *)
    (102, "0x1.d1p+8", 127, 918);  (* cycle 5 *)
    (103, "0x1.9bcp+10", 0, 63);  (* clique 5 *)
    (104, "0x1.d5ep+16", 459, 1591);  (* star 6 *)
    (105, "0x1.758p+9", 7, 164);  (* chain 5 *)
    (106, "0x1.16e4a888p+30", 309, 1251);  (* star 5 *)
    (107, "0x1.824p+10", 593, 2892);  (* cycle 5 *)
    (108, "0x1.056p+11", 575, 2865);  (* clique 5 *)
    (109, "0x1.104p+11", 43, 395);  (* star 6 *)
    (110, "0x1.cc05p+16", 1717, 5201);  (* chain 5 *)
    (111, "0x1.d0e2p+16", 25, 197);  (* star 5 *)
    (112, "0x1.1e8fp+20", 569, 2258);  (* cycle 5 *)
    (113, "0x1.0f2p+11", 0, 65);  (* clique 5 *)
    (114, "0x1.d271p+16", 119, 532);  (* star 6 *)
    (115, "0x1.2p+6", 0, 62);  (* chain 5 *)
    (116, "0x1.61ea3ap+23", 33, 244);  (* star 5 *)
    (117, "0x1.d7dep+16", 631, 2537);  (* cycle 5 *)
    (118, "0x1.8p+6", 0, 56);  (* clique 5 *)
    (119, "0x1.650816p+23", 221, 797);  (* star 6 *)
  ]

let test_pinned_work () =
  let groups =
    [|
      (Join_graph.Chain, 5); (Join_graph.Star, 5); (Join_graph.Cycle, 5);
      (Join_graph.Clique, 5); (Join_graph.Star, 6);
    |]
  in
  let config = Optimizer.default_config |> Optimizer.with_jobs 1 in
  List.iteri
    (fun i (seed, objective, nodes, iters) ->
      let shape, num_tables = groups.(i mod Array.length groups) in
      let q = Workload.generate ~seed ~shape ~num_tables () in
      let r = Optimizer.optimize ~config q in
      let what = Printf.sprintf "seed %d (%s %d)" seed (Join_graph.shape_to_string shape) num_tables in
      Alcotest.(check string)
        (what ^ " objective bits") objective
        (match r.Optimizer.objective with Some o -> Printf.sprintf "%h" o | None -> "none");
      Alcotest.(check int) (what ^ " nodes") nodes r.Optimizer.nodes;
      Alcotest.(check int) (what ^ " simplex iterations") iters r.Optimizer.simplex_iters)
    pinned_work

let () =
  Alcotest.run "core"
    [
      ( "thresholds",
        [
          Alcotest.test_case "ladder count" `Quick test_ladder_count;
          Alcotest.test_case "monotone reached" `Quick test_ladder_monotone_reached;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "log10 outer card" `Quick test_log10_outer_card_matches_estimator;
          Alcotest.test_case "cout objective vs DP" `Quick test_cout_objective_matches_dp_cout;
          Alcotest.test_case "correlated groups" `Quick test_correlated_group_encoding;
          Alcotest.test_case "honest choose-operator regressions" `Quick
            test_honest_choose_regressions;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "paper example" `Quick test_paper_example_end_to_end;
          Alcotest.test_case "anytime trace" `Quick test_anytime_trace_semantics;
          Alcotest.test_case "operator selection" `Quick test_operator_selection_beats_fixed;
          Alcotest.test_case "pinned search work" `Quick test_pinned_work;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "figure 1 harness" `Quick test_figure1_shape;
          Alcotest.test_case "figure 2 harness" `Quick test_figure2_shape;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "expensive predicates postpone" `Quick
            test_expensive_postpones_when_worth_it;
          Alcotest.test_case "interesting orders end-to-end" `Quick test_orders_end_to_end;
          Alcotest.test_case "projection end-to-end" `Quick test_projection_end_to_end;
          Alcotest.test_case "projection drops columns" `Quick
            test_projection_drops_predicate_columns;
        ] );
      ("properties", qcheck_tests);
    ]
