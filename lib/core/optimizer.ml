module Problem = Milp.Problem
module Solver = Milp.Solver
module Branch_bound = Milp.Branch_bound
module Plan = Relalg.Plan
module Cost_model = Relalg.Cost_model

type warm_start_policy =
  | Ws_off
  | Ws_greedy
  | Ws_portfolio
  | Ws_plan of Plan.t

let warm_start_to_string = function
  | Ws_off -> "off"
  | Ws_greedy -> "greedy"
  | Ws_portfolio -> "portfolio"
  | Ws_plan _ -> "plan"

let warm_start_of_string = function
  | "off" -> Ok Ws_off
  | "greedy" -> Ok Ws_greedy
  | "portfolio" -> Ok Ws_portfolio
  | s -> Error (Printf.sprintf "unknown warm-start policy %S (expected off|greedy|portfolio)" s)

(* The monolithic encoding path (Card, Cost_model, Plan.prefix_mask,
   the MILP itself) works in int bitmasks and tops out at this many
   tables; anything larger must go through the decomposition subsystem
   (lib/decomp), which never builds a monolithic mask. *)
let max_monolithic_tables = 62

type decomp_policy = Dc_off | Dc_auto | Dc_force

let decomp_policy_to_string = function
  | Dc_off -> "off"
  | Dc_auto -> "auto"
  | Dc_force -> "force"

let decomp_policy_of_string = function
  | "off" -> Ok Dc_off
  | "auto" -> Ok Dc_auto
  | "force" -> Ok Dc_force
  | s -> Error (Printf.sprintf "unknown decomposition policy %S (expected off|auto|force)" s)

type seam_heuristic = Seam_ikkbz | Seam_greedy

let seam_to_string = function Seam_ikkbz -> "ikkbz" | Seam_greedy -> "greedy"

let seam_of_string = function
  | "ikkbz" -> Ok Seam_ikkbz
  | "greedy" -> Ok Seam_greedy
  | s -> Error (Printf.sprintf "unknown seam heuristic %S (expected ikkbz|greedy)" s)

type decomp_config = {
  dc_policy : decomp_policy;
  dc_threshold : int;
  dc_max_cluster : int;
  dc_seam : seam_heuristic;
}

let default_decomp =
  (* The auto threshold sits where the monolithic MILP stops returning
     certified plans inside interactive budgets; the hard 62-table mask
     ceiling applies regardless (auto always decomposes above it). *)
  { dc_policy = Dc_off; dc_threshold = 30; dc_max_cluster = 12; dc_seam = Seam_ikkbz }

type config = {
  encoding : Encoding.config;
  cost : Cost_enc.spec;
  pm : Cost_model.page_model;
  solver : Solver.params;
  warm_start : warm_start_policy;
  decomp : decomp_config;
}

let default_config =
  {
    encoding = Encoding.default_config;
    cost = Cost_enc.Fixed_operator Plan.Hash_join;
    pm = Cost_model.default_page_model;
    (* Root Gomory cuts rarely pay off on the big-M threshold rows and
       each round costs a cold LP solve; leave them opt-in here. *)
    solver = { Solver.default_params with Solver.cut_rounds = 0 };
    warm_start = Ws_greedy;
    decomp = default_decomp;
  }

let with_decomp dc config =
  if dc.dc_threshold < 2 then invalid_arg "Optimizer.with_decomp: threshold must be >= 2";
  if dc.dc_max_cluster < 2 || dc.dc_max_cluster > max_monolithic_tables then
    invalid_arg
      (Printf.sprintf "Optimizer.with_decomp: max cluster size must be in [2, %d]"
         max_monolithic_tables);
  { config with decomp = dc }

(* Should [q] take the decomposition path under this config? [Dc_auto]
   decomposes past the configured threshold and always past the hard
   mask ceiling; [Dc_force] decomposes any query that can be split
   (>= 3 tables leaves at least two clusters or a seam worth the name). *)
let should_decompose config q =
  let n = Relalg.Query.num_tables q in
  match config.decomp.dc_policy with
  | Dc_off -> false
  | Dc_force -> n > 2
  | Dc_auto -> n > config.decomp.dc_threshold || n > max_monolithic_tables

let with_precision precision config =
  { config with encoding = { config.encoding with Encoding.precision } }

let with_time_limit t config = { config with solver = Solver.with_time_limit t config.solver }

let with_jobs n config = { config with solver = Solver.with_jobs n config.solver }

let with_checkpoint ck config = { config with solver = Solver.with_checkpoint ck config.solver }

let with_lint level config = { config with solver = Solver.with_lint level config.solver }

let with_warm_start plan config =
  { config with warm_start = (match plan with Some p -> Ws_plan p | None -> Ws_greedy) }

let with_warm_start_policy ws config = { config with warm_start = ws }

type trace_point = {
  tp_elapsed : float;
  tp_objective : float option;
  tp_bound : float;
  tp_factor : float option;
}

type provenance =
  [ `Milp_certified | `Milp_uncertified | `Recovered of int | `Fallback_dp | `Fallback_heuristic ]

let provenance_to_string = function
  | `Milp_certified -> "milp-certified"
  | `Milp_uncertified -> "milp-uncertified"
  | `Recovered rung -> Printf.sprintf "milp-recovered(rung %d)" rung
  | `Fallback_dp -> "fallback-dp"
  | `Fallback_heuristic -> "fallback-heuristic"

type result = {
  plan : Plan.t option;
  provenance : provenance option;
  certificate : Solver.certificate;
  true_cost : float option;
  objective : float option;
  bound : float;
  status : Branch_bound.status;
  stopped : Branch_bound.stop_reason;
  resumed : bool;
  trace : trace_point list;
  nodes : int;
  simplex_iters : int;
  num_vars : int;
  num_constrs : int;
  elapsed : float;
  lint : Milp.Lint.report option;
  seed : Milp.Warm_start.seed option;
}

let guaranteed_factor ~objective ~bound =
  if bound <= 0. then infinity else objective /. bound

let exact_metric = function
  | Cost_enc.Cout -> Cost_model.Cout
  | Cost_enc.Fixed_operator _ | Cost_enc.Choose_operator _ -> Cost_model.Operator_costs

let trace_of_progress pr =
  let tp_factor =
    match pr.Branch_bound.pr_incumbent with
    | Some obj -> Some (guaranteed_factor ~objective:obj ~bound:pr.Branch_bound.pr_bound)
    | None -> None
  in
  {
    tp_elapsed = pr.Branch_bound.pr_elapsed;
    tp_objective = pr.Branch_bound.pr_incumbent;
    tp_bound = pr.Branch_bound.pr_bound;
    tp_factor;
  }

(* Operator policy for the fallback planners, matching the MILP spec. *)
let fallback_operators = function
  | Cost_enc.Fixed_operator op -> Dp_opt.Selinger.Fixed op
  | Cost_enc.Choose_operator _ -> Dp_opt.Selinger.Best_per_join
  | Cost_enc.Cout -> Dp_opt.Selinger.Fixed Plan.Hash_join

(* Last line of defense when the MILP path yields no usable plan: exact
   Selinger DP for small queries (it is fast there and provably optimal),
   then IKKBZ on tree-shaped queries, then the greedy heuristic — which
   always succeeds. *)
let fallback_plan ?(allow_dp = true) config q =
  let metric = exact_metric config.cost in
  let operators = fallback_operators config.cost in
  let dp =
    if allow_dp && Relalg.Query.num_tables q <= 12 then
      match Dp_opt.Selinger.optimize ~metric ~pm:config.pm ~operators ~time_limit:5.0 q with
      | Dp_opt.Selinger.Complete r -> Some (r.Dp_opt.Selinger.plan, r.Dp_opt.Selinger.cost, `Fallback_dp)
      | Dp_opt.Selinger.Timed_out _ -> None
    else None
  in
  match dp with
  | Some _ as r -> r
  | None -> (
    match Dp_opt.Ikkbz.plan q with
    | Ok (plan, _) ->
      (* IKKBZ optimizes C_out; report the cost under the configured metric. *)
      Some (plan, Cost_model.plan_cost ~metric ~pm:config.pm q plan, `Fallback_heuristic)
    | Error _ ->
      let plan, cost = Dp_opt.Greedy.plan ~metric ~pm:config.pm ~operators q in
      Some (plan, cost, `Fallback_heuristic))

let optimize ?(config = default_config) ?budget ?resume ?on_progress q =
  if Relalg.Query.num_tables q > max_monolithic_tables then
    invalid_arg
      (Printf.sprintf
         "Optimizer.optimize: %d tables exceeds the %d-table monolithic encoding ceiling — \
          route the query through decomposition (--decompose=auto)"
         (Relalg.Query.num_tables q) max_monolithic_tables);
  let budget =
    match budget with
    | Some b -> b
    | None ->
      Milp.Budget.create ?limit:config.solver.Solver.bb.Branch_bound.time_limit ()
  in
  let enc = Encoding.build ~config:config.encoding q in
  let cost = Cost_enc.install ~pm:config.pm enc config.cost in
  let problem = enc.Encoding.problem in
  (* All candidate plans go through the metadata-driven translation in
     {!Milp.Warm_start}: the MILP side reconstructs the assignment from
     the [joinopt.*] stamps alone, and branch & bound re-certifies it
     against the original rows before seeding, so a bad candidate can
     cost us the warm start but never the answer. *)
  let assignment_of (plan : Plan.t) =
    let operators = Array.map Plan.operator_to_string plan.Plan.operators in
    Milp.Warm_start.assignment_of_plan ~operators problem plan.Plan.order
  in
  let metric = exact_metric config.cost in
  let operators = fallback_operators config.cost in
  let candidate_of ~source plan =
    match assignment_of plan with
    | Ok ws_x -> Some { Milp.Warm_start.ws_x; ws_source = source }
    | Error msg ->
      Logs.warn (fun m -> m "%s warm-start candidate dropped: %s" source msg);
      None
  in
  let greedy_candidate () =
    let plan, _ = Dp_opt.Greedy.plan ~metric ~pm:config.pm ~operators q in
    candidate_of ~source:"greedy" plan
  in
  (* Race the heuristic portfolio under a small slice of the solve
     budget: greedy and IKKBZ are effectively instant, annealing gets the
     slice as its stopping clock. {!Milp.Warm_start.race} certifies every
     finisher and keeps the best certified objective (first listed wins
     ties, so the outcome is deterministic). *)
  let portfolio_candidate () =
    let limit =
      match Milp.Budget.remaining budget with
      | Some r -> Float.max 0.05 (Float.min 2.0 (0.1 *. r))
      | None -> 2.0
    in
    let slice = Milp.Budget.sub budget ~limit () in
    let raw plan = match assignment_of plan with Ok x -> Some x | Error _ -> None in
    let racers =
      [
        ("greedy", fun () -> raw (fst (Dp_opt.Greedy.plan ~metric ~pm:config.pm ~operators q)));
        ( "ikkbz",
          fun () ->
            match Dp_opt.Ikkbz.plan q with
            | Ok (plan, _) -> raw plan
            | Error Dp_opt.Ikkbz.Not_a_tree -> None );
        ( "annealing",
          fun () ->
            let time_limit =
              match Milp.Budget.remaining slice with Some r -> r | None -> limit
            in
            let r =
              Dp_opt.Annealing.simulated_annealing ~metric ~pm:config.pm ~seed:7 ~time_limit q
            in
            raw r.Dp_opt.Annealing.plan );
      ]
    in
    let best, rejected = Milp.Warm_start.race problem racers in
    List.iter
      (fun (src, msg) -> Logs.debug (fun m -> m "portfolio candidate %s rejected: %s" src msg))
      rejected;
    match best with
    | Some (cand, obj) ->
      Logs.info (fun m ->
          m "portfolio warm start: %s wins with objective %g" cand.Milp.Warm_start.ws_source obj);
      Some cand
    | None -> None
  in
  let mip_start =
    if Relalg.Query.num_tables q < 2 then None
    else
      match config.warm_start with
      | Ws_off -> None
      | Ws_greedy -> greedy_candidate ()
      | Ws_portfolio -> portfolio_candidate ()
      (* A caller-supplied plan (e.g. a cached plan for the same canonical
         query at a different precision) beats the heuristics; an invalid
         one is ignored, never fatal. *)
      | Ws_plan plan when Plan.validate q plan = Ok () -> candidate_of ~source:"plan" plan
      | Ws_plan _ ->
        Logs.warn (fun m -> m "warm-start plan does not match the query; using the greedy seed");
        greedy_candidate ()
  in
  let wrap_progress =
    match on_progress with
    | None -> None
    | Some f -> Some (fun pr -> f (trace_of_progress pr))
  in
  let outcome =
    Solver.solve ~params:config.solver ~budget ?resume ?mip_start
      ?on_progress:wrap_progress enc.Encoding.problem
  in
  let bb = outcome.Solver.result in
  (* Decoding the winning assignment can itself fail under numeric
     trouble (an order that is not a permutation, a missing operator
     selection); treat that exactly like having no solution. *)
  let decoded =
    match bb.Branch_bound.o_x with
    | None -> None
    | Some x -> (
      match
        let order = Encoding.order_of_assignment enc (fun v -> x.(v)) in
        Cost_enc.decode_operators cost (fun v -> x.(v)) order
      with
      | plan -> (
        match Plan.validate q plan with
        | Ok () -> Some plan
        | Error msg ->
          Logs.warn (fun m -> m "decoded plan failed validation: %s" msg);
          None)
      | exception Failure msg ->
        Logs.warn (fun m -> m "decoding the MILP solution failed: %s" msg);
        None)
  in
  let plan, true_cost, provenance =
    match decoded with
    | Some plan ->
      let metric = exact_metric config.cost in
      let prov =
        if outcome.Solver.rungs > 0 then `Recovered outcome.Solver.rungs
        else
          match outcome.Solver.certificate with
          | Solver.Certified _ -> `Milp_certified
          | Solver.Uncertified _ | Solver.No_incumbent -> `Milp_uncertified
      in
      (Some plan, Some (Cost_model.plan_cost ~metric ~pm:config.pm q plan), Some prov)
    | None -> (
      (* After a cancellation the user wants out *now*: skip the (slow)
         exact-DP fallback rung and settle for a heuristic plan. *)
      match fallback_plan ~allow_dp:(not (Milp.Budget.cancelled budget)) config q with
      | Some (plan, fcost, prov) ->
        Logs.info (fun m ->
            m "MILP produced no usable plan; %s supplied one" (provenance_to_string prov));
        (Some plan, Some fcost, Some prov)
      | None -> (None, None, None))
  in
  {
    plan;
    provenance;
    certificate = outcome.Solver.certificate;
    true_cost;
    objective = bb.Branch_bound.o_objective;
    bound = bb.Branch_bound.o_bound;
    status = bb.Branch_bound.o_status;
    stopped = bb.Branch_bound.o_stop;
    resumed = outcome.Solver.resumed;
    trace = List.map trace_of_progress bb.Branch_bound.o_trace;
    nodes = bb.Branch_bound.o_nodes;
    simplex_iters = bb.Branch_bound.o_simplex_iters;
    num_vars = Problem.num_vars enc.Encoding.problem;
    num_constrs = Problem.num_constrs enc.Encoding.problem;
    elapsed = Milp.Budget.elapsed budget;
    lint = outcome.Solver.lint_report;
    seed = bb.Branch_bound.o_seed;
  }
