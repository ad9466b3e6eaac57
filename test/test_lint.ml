(* Tests for the static formulation auditor (Milp.Lint).

   Two families:

   1. Golden corrupted fixtures: each hand-built broken problem must
      produce exactly the diagnostic codes recorded in
      golden/lint_fixtures.expected — the codes are a public, stable
      interface, so a refactor that changes what a corruption reports
      has to update the golden file consciously.

   2. Lint-clean property: every encoding generated from the seeded
      workloads — four join-graph shapes, three cost models, both
      formulations, each extension — must produce zero Error
      diagnostics. This is the "the auditor trusts the generators and
      the generators pass the audit" contract the differential suite
      also leans on. *)

module Problem = Milp.Problem
module Linexpr = Milp.Linexpr
module Lint = Milp.Lint
module Workload = Relalg.Workload
module Join_graph = Relalg.Join_graph
module Query = Relalg.Query
module Predicate = Relalg.Predicate
module Plan = Relalg.Plan
module Encoding = Joinopt.Encoding
module Cost_enc = Joinopt.Cost_enc
module Ext_expensive = Joinopt.Ext_expensive
module Ext_orders = Joinopt.Ext_orders
module Ext_projection = Joinopt.Ext_projection

(* ------------------------------------------------------------------ *)
(* 1. Golden corrupted fixtures                                         *)
(* ------------------------------------------------------------------ *)

let codes report =
  match
    List.sort_uniq compare (List.map (fun d -> d.Lint.d_code) report.Lint.diagnostics)
  with
  | [] -> "-"
  | cs -> String.concat " " cs

(* Each fixture plants one specific corruption (on top of an otherwise
   healthy two-variable core, so unrelated checks stay quiet). *)

let fx_clean () =
  let p = Problem.create ~name:"clean" () in
  let x = Problem.add_var p ~name:"x" ~kind:Problem.Binary () in
  let y = Problem.add_var p ~name:"y" ~kind:Problem.Binary () in
  Problem.add_constr p ~name:"cover" (Linexpr.of_terms [ (x, 1.); (y, 1.) ]) Problem.Ge 1.;
  Problem.set_objective p Problem.Minimize (Linexpr.of_terms [ (x, 1.); (y, 2.) ]);
  p

let fx_infeasible_row () =
  let p = Problem.create ~name:"infeasible" () in
  let x = Problem.add_var p ~name:"x" ~ub:1. () in
  let y = Problem.add_var p ~name:"y" ~ub:1. () in
  Problem.add_constr p ~name:"too_much" (Linexpr.of_terms [ (x, 1.); (y, 1.) ]) Problem.Ge 3.;
  Problem.set_objective p Problem.Minimize (Linexpr.of_terms [ (x, 1.); (y, 1.) ]);
  p

let fx_always_slack () =
  let p = Problem.create ~name:"slack" () in
  let x = Problem.add_var p ~name:"x" ~ub:1. () in
  Problem.add_constr p ~name:"never_binds" (Linexpr.var x) Problem.Le 5.;
  Problem.set_objective p Problem.Minimize (Linexpr.var x);
  p

let fx_nonfinite () =
  let p = Problem.create ~name:"nonfinite" () in
  let x = Problem.add_var p ~name:"x" ~ub:1. () in
  Problem.add_constr p ~name:"nan_rhs" (Linexpr.var x) Problem.Le Float.nan;
  Problem.set_objective p Problem.Minimize (Linexpr.var x);
  p

(* A single-variable row would be absorbed into the bound box by
   propagation and read as always-slack (L102), so the healthy core
   comes from [fx_clean] and only the unused column is added. *)
let fx_dangling () =
  let p = fx_clean () in
  let _z = Problem.add_var p ~name:"z" ~ub:1. () in
  p

let fx_empty_row () =
  let p = Problem.create ~name:"empty" () in
  let x = Problem.add_var p ~name:"x" ~ub:1. () in
  Problem.add_constr p ~name:"cancelled" (Linexpr.of_terms [ (x, 1.); (x, -1.) ]) Problem.Le 1.;
  Problem.set_objective p Problem.Minimize (Linexpr.var x);
  p

let fx_duplicate_row () =
  let p = Problem.create ~name:"duplicate" () in
  let x = Problem.add_var p ~name:"x" ~ub:1. () in
  let y = Problem.add_var p ~name:"y" ~ub:1. () in
  (* rhs 2 < max activity 3, so the row genuinely binds and only the
     duplication is wrong. *)
  let e () = Linexpr.of_terms [ (x, 1.); (y, 2.) ] in
  Problem.add_constr p ~name:"first" (e ()) Problem.Le 2.;
  Problem.add_constr p ~name:"second" (e ()) Problem.Le 2.;
  Problem.set_objective p Problem.Minimize (Linexpr.var x);
  p

(* Indicator x <= M b with x in [0, 10]: M must be at least 10. *)
let bigm_fixture ~m =
  let p = Problem.create ~name:"bigm" () in
  let x = Problem.add_var p ~name:"x" ~ub:10. () in
  let b = Problem.add_var p ~name:"b" ~kind:Problem.Binary () in
  Problem.add_constr p ~name:"indicator"
    (Linexpr.of_terms [ (x, 1.); (b, -.m) ])
    Problem.Le 0.;
  Problem.set_objective p Problem.Minimize (Linexpr.of_terms [ (x, 1.); (b, 1.) ]);
  p

let fx_insufficient_bigm () = bigm_fixture ~m:6.
let fx_loose_bigm () = bigm_fixture ~m:100.

let fx_bad_metadata () =
  let p = fx_clean () in
  Problem.set_meta p "joinopt.tables" "three";
  p

let fx_missing_structure () =
  let p = fx_clean () in
  Problem.set_meta p "joinopt.tables" "3";
  Problem.set_meta p "joinopt.joins" "2";
  Problem.set_meta p "joinopt.formulation" "reduced";
  Problem.set_meta p "joinopt.thresholds" "1";
  p

let fixtures =
  [
    ("clean", fx_clean);
    ("infeasible_row", fx_infeasible_row);
    ("always_slack", fx_always_slack);
    ("nonfinite", fx_nonfinite);
    ("dangling", fx_dangling);
    ("empty_row", fx_empty_row);
    ("duplicate_row", fx_duplicate_row);
    ("insufficient_bigm", fx_insufficient_bigm);
    ("loose_bigm", fx_loose_bigm);
    ("bad_metadata", fx_bad_metadata);
    ("missing_structure", fx_missing_structure);
  ]

let rendered () =
  fixtures
  |> List.map (fun (name, build) ->
         Printf.sprintf "%s: %s" name (codes (Lint.analyze (build ()))))
  |> String.concat "\n"

let test_golden_fixtures () =
  let expected =
    let ic = open_in_bin "golden/lint_fixtures.expected" in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    String.trim s
  in
  Alcotest.(check string) "diagnostic codes per corrupted fixture" expected (rendered ())

(* ------------------------------------------------------------------ *)
(* 2. Generated encodings lint clean at Error severity                  *)
(* ------------------------------------------------------------------ *)

let assert_error_clean label problem =
  let r = Lint.analyze problem in
  if Lint.errors r > 0 then
    Alcotest.failf "%s has lint errors:@.%s" label (Format.asprintf "%a" Lint.pp_report r)

let shapes =
  [
    ("chain", Join_graph.Chain);
    ("cycle", Join_graph.Cycle);
    ("star", Join_graph.Star);
    ("clique", Join_graph.Clique);
  ]

let specs =
  [
    ("cout", Cost_enc.Cout);
    ("hash", Cost_enc.Fixed_operator Plan.Hash_join);
    ( "choose",
      Cost_enc.Choose_operator [ Plan.Hash_join; Plan.Sort_merge_join; Plan.Block_nested_loop ]
    );
  ]

let formulations =
  [ ("reduced", Encoding.Reduced); ("full-paper", Encoding.Full_paper) ]

let test_workloads_lint_clean () =
  List.iter
    (fun (sn, shape) ->
      List.iter
        (fun (cn, spec) ->
          List.iter
            (fun (fn, formulation) ->
              List.iter
                (fun (n, seed) ->
                  let q = Workload.generate ~seed ~shape ~num_tables:n () in
                  let config = { Encoding.default_config with Encoding.formulation } in
                  let enc = Encoding.build ~config q in
                  ignore (Cost_enc.install enc spec);
                  assert_error_clean
                    (Printf.sprintf "%s/%s/%s n=%d seed=%d" sn cn fn n seed)
                    enc.Encoding.problem)
                [ (4, 1); (6, 2) ])
            formulations)
        specs)
    shapes

(* Re-price one predicate so the expensive-predicate extension has a
   genuinely priced predicate to schedule (the workload generator prices
   everything at zero). *)
let reprice_first q =
  Query.create
    ~predicates:
      (Array.to_list q.Query.predicates
      |> List.mapi (fun i p ->
             if i = 0 then
               Predicate.binary ~eval_cost:1.5
                 (List.nth p.Predicate.pred_tables 0)
                 (List.nth p.Predicate.pred_tables 1)
                 p.Predicate.selectivity
             else p))
    (Array.to_list q.Query.tables)

let test_extensions_lint_clean () =
  List.iter
    (fun (sn, shape) ->
      let q = Workload.generate ~seed:3 ~shape ~num_tables:5 () in
      let enc = Encoding.build q in
      ignore (Ext_expensive.install enc);
      assert_error_clean (sn ^ "/expensive(unpriced)") enc.Encoding.problem;
      let qp = reprice_first (Workload.generate ~seed:4 ~shape ~num_tables:4 ()) in
      let encp = Encoding.build qp in
      ignore (Ext_expensive.install encp);
      assert_error_clean (sn ^ "/expensive(priced)") encp.Encoding.problem;
      let enc2 = Encoding.build q in
      ignore (Ext_orders.install ~sorted_tables:[ 0; 2 ] enc2);
      assert_error_clean (sn ^ "/orders") enc2.Encoding.problem;
      let qc =
        Workload.generate
          ~config:{ Workload.default_config with Workload.columns_per_table = 2 }
          ~seed:3 ~shape ~num_tables:5 ()
      in
      let enc3 = Encoding.build qc in
      ignore (Ext_projection.install enc3);
      assert_error_clean (sn ^ "/projection") enc3.Encoding.problem)
    shapes

(* Propagation rounds an integer variable's derived bound; one beyond
   [max_int] (5e18 here) must stay itself, not wrap to a negative bound
   that makes the second row look infeasible. *)
let test_huge_integer_bounds () =
  let p = Problem.create ~name:"huge" () in
  let x = Problem.add_var p ~name:"x" ~kind:Problem.Integer ~ub:1e20 () in
  Problem.add_constr p ~name:"cap" (Linexpr.var x) Problem.Le 5e18;
  Problem.add_constr p ~name:"floor" (Linexpr.var x) Problem.Ge 1e18;
  Problem.set_objective p Problem.Minimize (Linexpr.var x);
  let r = Lint.analyze p in
  Alcotest.(check int)
    (Format.asprintf "no errors:@.%a" Lint.pp_report r)
    0 (Lint.errors r)

let () =
  Alcotest.run "lint"
    [
      ( "golden",
        [ Alcotest.test_case "corrupted fixtures produce their expected codes" `Quick
            test_golden_fixtures ] );
      ( "clean",
        [
          Alcotest.test_case "workload encodings lint clean at Error severity" `Quick
            test_workloads_lint_clean;
          Alcotest.test_case "extension encodings lint clean at Error severity" `Quick
            test_extensions_lint_clean;
          Alcotest.test_case "integer bounds beyond max_int" `Quick test_huge_integer_bounds;
        ] );
    ]
