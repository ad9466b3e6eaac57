(* The decomposition driver: partition, solve clusters, stitch.

   A query past (or configured past) the monolithic threshold is split
   into clusters ({!Partition}), each cluster is solved by the ordinary
   certified MILP pipeline under a slice of the caller's budget, the
   seam layer ({!Seam}) orders the clusters, and the cluster-internal
   orders are concatenated into one global left-deep plan whose
   operators are then re-picked and whose true cost is measured by the
   mask-free model ({!Wide_cost}).

   Budget discipline: every cluster solve runs under [Milp.Budget.sub]
   of the caller's budget — never the raw budget — so one slow cluster
   cannot eat the whole deadline and one SIGINT winds down every
   in-flight cluster (the sub-budgets share the cancellation token).
   The per-cluster slice is remaining / waves, where a wave is one round
   of [jobs] parallel solves.

   Failure discipline: a cluster solve that dies (exception, or the
   {!Milp.Faults.cluster_fails} chaos hook) degrades to the greedy
   heuristic for that cluster only, flagged in its report; the query as
   a whole always gets a plan. *)

module Q = Relalg.Query
module Plan = Relalg.Plan
module Optimizer = Joinopt.Optimizer
module Budget = Milp.Budget

type cluster_report = {
  cr_tables : int array;
  cr_order : int array;
  cr_provenance : string;
  cr_objective : float option;
  cr_bound : float;
  cr_certified : bool;
  cr_degraded : bool;
  cr_seed : string option;
  cr_stopped : string;
  cr_elapsed : float;
}

type result = {
  d_plan : Plan.t;
  d_true_cost : float;
  d_clusters : cluster_report array;
  d_num_clusters : int;
  d_seam : string;
  d_seam_fallback : bool;
  d_degraded : bool;
  d_elapsed : float;
}

let stop_to_string = function
  | Milp.Branch_bound.Completed -> "completed"
  | Milp.Branch_bound.Time_limit -> "time-limit"
  | Milp.Branch_bound.Node_limit -> "node-limit"
  | Milp.Branch_bound.Interrupted -> "interrupted"

(* Map a cluster-local join order to global table indices. *)
let globalize (cl : Partition.cluster) local_order =
  Array.map (fun i -> cl.Partition.cl_tables.(i)) local_order

let trivial_report (cl : Partition.cluster) =
  {
    cr_tables = cl.Partition.cl_tables;
    cr_order = cl.Partition.cl_tables;
    cr_provenance = "trivial";
    cr_objective = None;
    cr_bound = 0.;
    cr_certified = true;
    cr_degraded = false;
    cr_seed = None;
    cr_stopped = "completed";
    cr_elapsed = 0.;
  }

(* The heuristic rung for a cluster whose MILP solve died: the greedy
   order is always available (clusters respect the monolithic ceilings
   by construction) and the report says exactly what happened. *)
let degraded_report (cl : Partition.cluster) ~why ~elapsed =
  {
    cr_tables = cl.Partition.cl_tables;
    cr_order = globalize cl (Dp_opt.Greedy.order cl.Partition.cl_query);
    cr_provenance = why;
    cr_objective = None;
    cr_bound = 0.;
    cr_certified = false;
    cr_degraded = true;
    cr_seed = None;
    cr_stopped = "failed";
    cr_elapsed = elapsed;
  }

let solve_cluster ~config ~budget ~slice (cl : Partition.cluster) =
  let t0 = Budget.now () in
  if Array.length cl.Partition.cl_tables = 1 then trivial_report cl
  else if Milp.Faults.cluster_fails () then
    degraded_report cl ~why:"injected-failure:greedy"
      ~elapsed:(Budget.now () -. t0)
  else begin
    try
      let r =
        Optimizer.optimize ~config
          ~budget:(Budget.sub budget ?limit:slice ())
          cl.Partition.cl_query
      in
      let order =
        match r.Optimizer.plan with
        | Some p -> p.Plan.order
        | None -> Dp_opt.Greedy.order cl.Partition.cl_query
      in
      {
        cr_tables = cl.Partition.cl_tables;
        cr_order = globalize cl order;
        cr_provenance =
          (match r.Optimizer.provenance with
          | Some p -> Optimizer.provenance_to_string p
          | None -> "heuristic");
        cr_objective = r.Optimizer.objective;
        cr_bound = r.Optimizer.bound;
        cr_certified =
          (match r.Optimizer.certificate with
          | Milp.Solver.Certified _ -> true
          | Milp.Solver.Uncertified _ | Milp.Solver.No_incumbent -> false);
        cr_degraded = false;
        cr_seed =
          (match r.Optimizer.seed with
          | Some s -> Some s.Milp.Warm_start.sd_source
          | None -> None);
        cr_stopped = stop_to_string r.Optimizer.stopped;
        cr_elapsed = Budget.now () -. t0;
      }
    with _ ->
      degraded_report cl ~why:"solver-failure:greedy"
        ~elapsed:(Budget.now () -. t0)
  end

let optimize ?(config = Optimizer.default_config) ?budget ?(jobs = 1) q =
  let t0 = Budget.now () in
  let budget =
    match budget with
    | Some b -> b
    | None ->
      Budget.create
        ?limit:config.Optimizer.solver.Milp.Solver.bb.Milp.Branch_bound.time_limit ()
  in
  let pt = Partition.partition ~max_cluster:config.Optimizer.decomp.Optimizer.dc_max_cluster q in
  let nc = Array.length pt.Partition.clusters in
  let nsolve =
    Array.fold_left
      (fun acc c -> if Array.length c.Partition.cl_tables > 1 then acc + 1 else acc)
      0 pt.Partition.clusters
  in
  let jobs = max 1 (min jobs (max 1 nsolve)) in
  (* Cluster solves never re-enter decomposition, and with a parallel
     dispatch each solve stays single-domain — the parallelism budget is
     spent across clusters, not inside one. *)
  let cluster_config =
    let c =
      Optimizer.with_decomp
        { config.Optimizer.decomp with Optimizer.dc_policy = Optimizer.Dc_off }
        config
    in
    if jobs > 1 then Optimizer.with_jobs 1 c else c
  in
  let slice =
    match Budget.remaining budget with
    | None -> None
    | Some r ->
      let waves = (max 1 nsolve + jobs - 1) / jobs in
      Some (r /. float_of_int waves)
  in
  let reports = Array.make nc None in
  let run ci =
    reports.(ci) <-
      Some
        (solve_cluster ~config:cluster_config ~budget ~slice pt.Partition.clusters.(ci))
  in
  if jobs <= 1 then
    for ci = 0 to nc - 1 do
      run ci
    done
  else
    Milp.Work_pool.run_all ~jobs
      ~work:(fun ci ->
        try run ci
        with _ ->
          reports.(ci) <-
            Some
              (degraded_report pt.Partition.clusters.(ci) ~why:"solver-failure:greedy"
                 ~elapsed:0.))
      (List.init nc Fun.id);
  let reports =
    Array.map
      (function
        | Some r -> r
        | None -> failwith "Decompose.optimize: missing cluster report")
      reports
  in
  let seam = Seam.order ~seam:config.Optimizer.decomp.Optimizer.dc_seam q pt in
  let order =
    Array.concat
      (Array.to_list (Array.map (fun ci -> reports.(ci).cr_order) seam.Seam.sm_order))
  in
  let plan = Wide_cost.optimal_operators ~pm:config.Optimizer.pm q order in
  let true_cost =
    Wide_cost.plan_cost
      ~metric:(Optimizer.exact_metric config.Optimizer.cost)
      ~pm:config.Optimizer.pm q plan
  in
  {
    d_plan = plan;
    d_true_cost = true_cost;
    d_clusters = reports;
    d_num_clusters = nc;
    d_seam = seam.Seam.sm_heuristic;
    d_seam_fallback = seam.Seam.sm_fallback;
    d_degraded = Array.exists (fun r -> r.cr_degraded) reports;
    d_elapsed = Budget.now () -. t0;
  }
