(* Differential-testing oracle for the MILP join optimizer.

   Three families of checks, all against ground truth that is computed
   independently of the MILP stack:

   1. Approximation oracle: on every join-graph shape x cost model, over
      a grid of seeded random queries small enough for exhaustive
      Selinger DP (n <= 8), a MILP solve that terminates [Optimal] must
      return a plan whose *true* cost is within the precision-induced
      approximation factor of the exhaustive optimum. The factor is
      [Thresholds.tolerance precision] (the paper's t): central rounding
      puts every approximated quantity within sqrt(t) of its true value
      in each direction, so the MILP-optimal plan's true cost is at most
      t times the true optimum (a small slack covers quantities zeroed
      below the first threshold).

   2. Determinism oracle: the parallel branch & bound ([jobs] > 1) must
      reproduce the serial engine's result *byte for byte* — same plan,
      same MILP objective, same true cost, same node count — because the
      parallel design only hides LP latency and replays the serial
      search exactly (see DESIGN.md).

   3. Lint oracle: every formulation generated along the way must pass
      the static audit (Milp.Lint) with zero Error diagnostics — a
      structural encoding bug is reported even when the solve happens
      to produce the right plan anyway.

   JOINOPT_TEST_JOBS sets the [jobs] value used by the approximation
   oracle (default 1), so the CI matrix drives the whole oracle through
   both engines. The determinism oracle always compares jobs 1/2/4. *)

module Thresholds = Joinopt.Thresholds
module Optimizer = Joinopt.Optimizer
module Cost_enc = Joinopt.Cost_enc
module Workload = Relalg.Workload
module Join_graph = Relalg.Join_graph
module Plan = Relalg.Plan

let env_jobs =
  match Sys.getenv_opt "JOINOPT_TEST_JOBS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

(* Seeded query grid: sizes weighted down where the MILP is slow (chain
   and cycle LPs take longest per node at equal n). *)
let grid shape =
  match (shape : Join_graph.shape) with
  | Join_graph.Chain | Join_graph.Cycle -> [ (4, 12); (5, 12); (6, 6) ]
  | Join_graph.Star | Join_graph.Clique -> [ (5, 12); (6, 12); (7, 6) ]
  | Join_graph.Other -> []

let shapes = Join_graph.[ Chain; Cycle; Star; Clique ]

let dp_optimum ~spec q =
  let metric = Optimizer.exact_metric spec in
  let operators =
    match spec with
    | Cost_enc.Fixed_operator op -> Dp_opt.Selinger.Fixed op
    | Cost_enc.Choose_operator _ -> Dp_opt.Selinger.Best_per_join
    | Cost_enc.Cout -> Dp_opt.Selinger.Fixed Plan.Hash_join
  in
  match Dp_opt.Selinger.optimize ~metric ~operators q with
  | Dp_opt.Selinger.Complete c -> c.Dp_opt.Selinger.cost
  | Dp_opt.Selinger.Timed_out _ -> Alcotest.fail "Selinger timed out on a tiny query"

let optimize ~spec ~jobs q =
  let config =
    { Optimizer.default_config with Optimizer.cost = spec }
    |> Optimizer.with_time_limit 60.
    |> Optimizer.with_jobs jobs
    |> Optimizer.with_lint Milp.Lint.Standard
  in
  let r = Optimizer.optimize ~config q in
  (* Third oracle: every formulation the grid generates must pass the
     static audit without Error diagnostics. A failure here indicts the
     encoder, independently of whether the solve went right. *)
  (match r.Optimizer.lint with
  | Some report when Milp.Lint.errors report > 0 ->
    Alcotest.failf "formulation lint errors:@.%s"
      (Format.asprintf "%a" Milp.Lint.pp_report report)
  | _ -> ());
  r

(* ------------------------------------------------------------------ *)
(* 1. Approximation oracle                                              *)
(* ------------------------------------------------------------------ *)

let check_approximation ~spec ~spec_name shape =
  let precision = Thresholds.Medium in
  let tol = Thresholds.tolerance precision in
  let optimal = ref 0 and skipped = ref 0 and total = ref 0 in
  List.iter
    (fun (n, seeds) ->
      for seed = 1 to seeds do
        incr total;
        let q = Workload.generate ~seed ~shape ~num_tables:n () in
        let r = optimize ~spec ~jobs:env_jobs q in
        match (r.Optimizer.status, r.Optimizer.plan, r.Optimizer.true_cost) with
        | Milp.Branch_bound.Optimal, Some plan, Some true_cost ->
          incr optimal;
          let dp_cost = dp_optimum ~spec q in
          let label =
            Printf.sprintf "%s/%s n=%d seed=%d" spec_name
              (Join_graph.shape_to_string shape) n seed
          in
          if Result.is_error (Plan.validate q plan) then
            Alcotest.failf "%s: invalid plan" label;
          if true_cost < dp_cost *. (1. -. 1e-9) then
            Alcotest.failf "%s: MILP plan cost %.6g beats the exhaustive optimum %.6g"
              label true_cost dp_cost;
          if true_cost > dp_cost *. tol *. 1.05 then
            Alcotest.failf
              "%s: MILP plan cost %.6g exceeds tolerance %g x optimum %.6g" label
              true_cost tol dp_cost
        | _ ->
          (* Ran out of budget / fell back: not an approximation failure,
             but if it happens often something is broken — see below. *)
          incr skipped
      done)
    (grid shape);
  if !optimal * 10 < !total * 9 then
    Alcotest.failf "only %d/%d solves reached Optimal (%d skipped)" !optimal !total !skipped

let approximation_tests =
  List.concat_map
    (fun shape ->
      let name spec_name =
        Printf.sprintf "%s/%s within tolerance of Selinger optimum" spec_name
          (Join_graph.shape_to_string shape)
      in
      [
        Alcotest.test_case (name "hash") `Slow (fun () ->
            check_approximation ~spec:(Cost_enc.Fixed_operator Plan.Hash_join)
              ~spec_name:"hash" shape);
        Alcotest.test_case (name "cout") `Slow (fun () ->
            check_approximation ~spec:Cost_enc.Cout ~spec_name:"cout" shape);
      ])
    shapes

(* ------------------------------------------------------------------ *)
(* 2. Determinism oracle: serial vs parallel                            *)
(* ------------------------------------------------------------------ *)

let check_parallel_agreement shape =
  let spec = Cost_enc.Fixed_operator Plan.Hash_join in
  let n = match (shape : Join_graph.shape) with
    | Join_graph.Chain | Join_graph.Cycle -> 5
    | _ -> 6
  in
  for seed = 1 to 3 do
    let q = Workload.generate ~seed ~shape ~num_tables:n () in
    let serial = optimize ~spec ~jobs:1 q in
    List.iter
      (fun jobs ->
        let par = optimize ~spec ~jobs q in
        let label =
          Printf.sprintf "%s n=%d seed=%d jobs=%d" (Join_graph.shape_to_string shape)
            n seed jobs
        in
        (* Byte-identical: float equality with no epsilon, structural plan
           equality, identical search statistics. *)
        if par.Optimizer.objective <> serial.Optimizer.objective then
          Alcotest.failf "%s: objective differs from serial" label;
        if par.Optimizer.true_cost <> serial.Optimizer.true_cost then
          Alcotest.failf "%s: true cost differs from serial" label;
        if par.Optimizer.plan <> serial.Optimizer.plan then
          Alcotest.failf "%s: plan differs from serial" label;
        if par.Optimizer.bound <> serial.Optimizer.bound then
          Alcotest.failf "%s: dual bound differs from serial" label;
        if par.Optimizer.nodes <> serial.Optimizer.nodes then
          Alcotest.failf "%s: node count differs from serial (%d vs %d)" label
            par.Optimizer.nodes serial.Optimizer.nodes;
        if par.Optimizer.status <> serial.Optimizer.status then
          Alcotest.failf "%s: status differs from serial" label)
      [ 2; 4 ]
  done

let parallel_tests =
  List.map
    (fun shape ->
      Alcotest.test_case
        (Printf.sprintf "jobs 1/2/4 byte-identical on %s" (Join_graph.shape_to_string shape))
        `Slow
        (fun () -> check_parallel_agreement shape))
    shapes

(* ------------------------------------------------------------------ *)
(* 4. Warm-start oracle: off / portfolio / cache must agree             *)
(* ------------------------------------------------------------------ *)

(* A MIP start is an optimization, never an answer: whatever seeded the
   search — nothing, the heuristic portfolio race, or a plan certified
   at a coarser precision and injected back (the plan-cache translation
   path in miniature) — the solver must finish certified, with the same
   status and the same optimal objective, and a seeded search must never
   explore *more* nodes than the cold one (the incumbent only tightens
   pruning).

   Plan *identity* across modes is deliberately not asserted: the
   staircase approximation quantizes costs, so distinct orders routinely
   tie at the optimal MILP objective, and which optimal plan a branch &
   bound returns then depends on where its first incumbent came from —
   a seeded tie is kept (incumbents are only replaced on strict
   improvement), exactly as in commercial solvers. True costs of tied
   plans can differ arbitrarily in *ratio* below the first threshold
   (every sub-threshold quantity quantizes alike, so the objective
   cannot discriminate there — e.g. Cout on a 5-table clique whose
   intermediate cardinalities all round to the same level). What is
   invariant is the certified MILP objective value, and that is what
   the oracle pins, to 1e-9 relative — far tighter than the
   [Thresholds.tolerance] the approximation guarantee promises. *)
let check_warm_start_agreement ?(strict = false) ~spec ~spec_name shape instances =
  List.iter
    (fun (n, seed) ->
      let q = Workload.generate ~seed ~shape ~num_tables:n () in
      let solve policy =
        let config =
          { Optimizer.default_config with Optimizer.cost = spec }
          |> Optimizer.with_time_limit 60.
          |> Optimizer.with_warm_start_policy policy
        in
        Optimizer.optimize ~config q
      in
      let cold = solve Optimizer.Ws_off in
      let label mode =
        Printf.sprintf "%s/%s n=%d seed=%d warm=%s" spec_name
          (Join_graph.shape_to_string shape) n seed mode
      in
      let check mode (warm : Optimizer.result) =
        let label = label mode in
        (match warm.Optimizer.certificate with
        | Milp.Solver.Certified _ -> ()
        | Milp.Solver.Uncertified msg -> Alcotest.failf "%s: uncertified: %s" label msg
        | Milp.Solver.No_incumbent -> Alcotest.failf "%s: no incumbent" label);
        if warm.Optimizer.status <> cold.Optimizer.status then
          Alcotest.failf "%s: status differs from cold" label;
        (match warm.Optimizer.plan with
        | Some plan when Result.is_ok (Plan.validate q plan) -> ()
        | Some _ -> Alcotest.failf "%s: invalid plan" label
        | None -> Alcotest.failf "%s: no plan" label);
        if warm.Optimizer.true_cost = None then Alcotest.failf "%s: missing true cost" label;
        (match (warm.Optimizer.objective, cold.Optimizer.objective) with
        | Some w, Some c ->
          if abs_float (w -. c) > 1e-9 *. Float.max 1. (abs_float c) then
            Alcotest.failf "%s: objective %.17g differs from cold %.17g" label w c
        | _ -> Alcotest.failf "%s: missing objective" label);
        if warm.Optimizer.nodes > cold.Optimizer.nodes then
          Alcotest.failf "%s: warm search explored more nodes than cold (%d > %d)" label
            warm.Optimizer.nodes cold.Optimizer.nodes;
        (* node counts at a limit measure throughput, not pruning: the
           strict check binds only when both searches completed *)
        if
          strict
          && cold.Optimizer.stopped = Milp.Branch_bound.Completed
          && warm.Optimizer.stopped = Milp.Branch_bound.Completed
          && warm.Optimizer.nodes >= cold.Optimizer.nodes
        then
          Alcotest.failf "%s: warm search pruned nothing (%d >= %d nodes)" label
            warm.Optimizer.nodes cold.Optimizer.nodes
      in
      let portfolio = solve Optimizer.Ws_portfolio in
      (match portfolio.Optimizer.seed with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: portfolio run recorded no seed provenance" (label "portfolio"));
      check "portfolio" portfolio;
      (* The cache path: certify a plan at Low precision, then inject it
         as the incumbent of the Medium-precision solve — what the
         service does when it finds a stale-precision cache entry. *)
      let coarse =
        let config =
          { Optimizer.default_config with Optimizer.cost = spec }
          |> Optimizer.with_precision Thresholds.Low
          |> Optimizer.with_time_limit 60.
        in
        Optimizer.optimize ~config q
      in
      match coarse.Optimizer.plan with
      | None -> Alcotest.failf "%s: coarse solve produced no plan" (label "cache")
      | Some plan -> check "cache" (solve (Optimizer.Ws_plan plan)))
    instances

let warm_start_grid =
  List.concat_map (fun (n, seeds) -> List.init seeds (fun i -> (n, i + 1)))
    [ (4, 6); (5, 5); (6, 4) ]

(* 7-table instances where incumbent discovery dominates the cold
   search, so a seeded search must explore strictly fewer nodes. On most
   queries the root LP rounding already finds a greedy-quality incumbent
   and the counts tie exactly, which would make the strict check vacuous
   (chain under the hash cost ties on every seed tried, hence BNL
   there). *)
let strict_pins =
  [
    (Join_graph.Chain, Cost_enc.Fixed_operator Plan.Block_nested_loop, "bnl", 8);
    (Join_graph.Star, Cost_enc.Fixed_operator Plan.Hash_join, "hash", 24);
    (Join_graph.Clique, Cost_enc.Fixed_operator Plan.Hash_join, "hash", 42);
  ]

let warm_start_tests =
  List.concat_map
    (fun shape ->
      let name spec_name =
        Printf.sprintf "%s/%s off = portfolio = cache" spec_name
          (Join_graph.shape_to_string shape)
      in
      [
        Alcotest.test_case (name "hash") `Slow (fun () ->
            check_warm_start_agreement ~spec:(Cost_enc.Fixed_operator Plan.Hash_join)
              ~spec_name:"hash" shape warm_start_grid);
        Alcotest.test_case (name "cout") `Slow (fun () ->
            check_warm_start_agreement ~spec:Cost_enc.Cout ~spec_name:"cout" shape
              warm_start_grid);
      ])
    shapes
  @ [
      Alcotest.test_case "pinned 7-table: warm < cold nodes" `Slow (fun () ->
          List.iter
            (fun (shape, spec, spec_name, seed) ->
              check_warm_start_agreement ~strict:true ~spec ~spec_name shape [ (7, seed) ])
            strict_pins);
    ]

let () =
  Alcotest.run "differential"
    [
      ("approximation-oracle", approximation_tests);
      ("parallel-determinism", parallel_tests);
      ("warm-start-oracle", warm_start_tests);
    ]
