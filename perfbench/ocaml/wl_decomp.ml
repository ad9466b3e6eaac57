(* decomp_wide: planted clusters-of-joins queries past the monolithic
   ceiling's comfortable range, through [Decomp.Decompose.optimize] at
   one worker domain — partition, cluster solves handed to the work
   pool and waited for, seam ordering, stitching and mask-free costing.
   The time limit is a safety net only: no cluster's budget slice
   binds. *)

module O = Joinopt.Optimizer
module JG = Relalg.Join_graph
module Json = Service.Json

let jobs = Sweep.decomp_jobs
let cluster_size = 4

(* 72-table queries: 18 four-table clique clusters joined by a chain or
   a star of weak seam predicates. One size keeps the latency
   distribution unimodal, so its median does not fall between sizes. *)
let num_clusters = 18
let seams = [| JG.Chain; JG.Star |]

let instances ~seed ~count =
  Array.init count (fun i ->
      let seam_shape = seams.(i mod Array.length seams) in
      Relalg.Workload.generate_clustered ~seam_shape ~seed:(Util.derive seed "wide" i) ~num_clusters
        ~cluster_size ())

let config =
  Layers.config O.Ws_greedy
  |> O.with_decomp { O.default_decomp with O.dc_policy = O.Dc_force; dc_max_cluster = cluster_size }

let wide_cost q p = Decomp.Wide_cost.plan_cost ~metric:(O.exact_metric config.O.cost) ~pm:config.O.pm q p

(* The reference is the Selinger DP optimum where it fits: on every
   cluster the partitioner produces, computed in set-up. A wide plan's
   cost has no exact reference (and the heuristic references tried —
   move-bounded iterative improvement, a planted-cluster greedy plan —
   differ from the stitched plan by orders of magnitude from query to
   query, which no run-to-run bound survives). So the cost ratio is taken
   per solved cluster, and the stitched plan is checked for being a
   permutation of all tables whose reported cost is the mask-free
   model's. *)
let cluster_key qi tables = String.concat "," (List.map string_of_int (qi :: Array.to_list tables))

let references refs qi q =
  Array.iter
    (fun c ->
      if Array.length c.Decomp.Partition.cl_tables > 1 then
        Hashtbl.replace refs (cluster_key qi c.Decomp.Partition.cl_tables)
          (c.Decomp.Partition.cl_query, Layers.reference_cost config c.Decomp.Partition.cl_query))
    (Decomp.Partition.partition ~max_cluster:cluster_size q).Decomp.Partition.clusters

let check tally ~refs ~qi ~q (r : Decomp.Decompose.result) =
  Checks.attempt tally;
  let d = r.Decomp.Decompose.d_plan in
  match Checks.plan ~exact:false ~cost:wide_cost ~reference:1. q d r.Decomp.Decompose.d_true_cost with
  | Error msg -> Checks.wrong tally ("stitched plan: " ^ msg)
  | Ok _ ->
    let failed = ref r.Decomp.Decompose.d_degraded in
    Array.iter
      (fun c ->
        let tables = c.Decomp.Decompose.cr_tables in
        if Array.length tables > 1 then begin
          let prov = c.Decomp.Decompose.cr_provenance in
          let recovered = String.starts_with ~prefix:"milp-recovered" prov in
          if
            not
              ((prov = "milp-certified" || recovered)
              && c.Decomp.Decompose.cr_certified && (not c.Decomp.Decompose.cr_degraded)
              && c.Decomp.Decompose.cr_stopped = "completed")
          then failed := true
          else if recovered then Checks.recovered tally;
          match Hashtbl.find_opt refs (cluster_key qi tables) with
          | None -> Checks.wrong tally "cluster not in the set-up partition"
          | Some (cq, reference) -> (
            let local = Hashtbl.create 8 in
            Array.iteri (fun i t -> Hashtbl.replace local t i) tables;
            let plan = Relalg.Plan.of_order (Array.map (Hashtbl.find local) c.Decomp.Decompose.cr_order) in
            let cost q p = Relalg.Cost_model.plan_cost ~metric:Relalg.Cost_model.Operator_costs q p in
            match Checks.plan ~exact:true ~cost ~reference cq plan (cost cq plan) with
            | Error msg -> Checks.wrong tally ("cluster plan: " ^ msg)
            | Ok ratio -> Util.push tally.Checks.ratios ratio)
        end)
      r.Decomp.Decompose.d_clusters;
    if !failed then Checks.fail tally "a cluster was not solved to a certified optimum"

(* The deterministic part of a result: true cost, order, cluster objectives. *)
let work_of (r : Decomp.Decompose.result) =
  Util.g17 r.Decomp.Decompose.d_true_cost
  :: String.concat "," (Array.to_list (Array.map string_of_int r.Decomp.Decompose.d_plan.Relalg.Plan.order))
  :: Array.to_list (Array.map (fun c -> Util.opt_g17 c.Decomp.Decompose.cr_objective) r.Decomp.Decompose.d_clusters)

let run (opts : Run.opts) =
  let count = if opts.Run.short then 1 else 24 in
  (* A fixed warm-up query, the same for every seed (see [Wl_solve.run]). *)
  let warmup = (instances ~seed:0 ~count:1).(0) in
  let (pool, refs), setup_s =
    Util.repeated_setup (Run.setups opts) (fun () ->
        let pool = instances ~seed:opts.Run.seed ~count in
        let refs = Hashtbl.create 256 in
        Array.iteri (references refs) pool;
        ignore (Decomp.Decompose.optimize ~config ~jobs warmup);
        (pool, refs))
  in
  let tally = Checks.tally () in
  let digest = Util.digest () in
  let latencies = Util.sample () in
  let m = Util.metrics () in
  (* The first pass feeds the digest; every later pass over the same
     query must repeat its work exactly, or the run reports it. *)
  let first = Array.make count [] and repeat_mismatches = ref 0 in
  let solve i =
    let q = pool.(i mod count) in
    let r, dt = Util.time (fun () -> Decomp.Decompose.optimize ~config ~jobs q) in
    check tally ~refs ~qi:(i mod count) ~q r;
    let work = work_of r in
    if i < count then begin
      first.(i) <- work;
      Util.digest_add digest (string_of_int i :: work)
    end
    else if work <> first.(i mod count) then incr repeat_mismatches;
    dt
  in
  if not opts.Run.trace then begin
    let n, elapsed, ops = Run.timed_loop ~seconds:opts.Run.seconds (fun i -> Util.push latencies (solve i)) in
    Run.end_to_end ~setup_s ~elapsed ~ops ~latencies:(Util.values latencies) tally m;
    {
      Run.tally;
      metrics = m;
      report =
        [
          ("work_digest", Json.String (Util.digest_hex digest));
          ("digest_items", Json.Int digest.Util.items);
          ("repeat_mismatches", Json.Int !repeat_mismatches);
          ("samples", Run.samples n);
        ];
    }
  end
  else begin
    let untraced = ref 0. and traced = ref 0. in
    let words = ref 0. and majors = ref 0 in
    let n, _, _ =
      Run.timed_loop ~seconds:(0.6 *. opts.Run.seconds) (fun i ->
          let g = Util.gc_mark () in
          let dt = solve i in
          let w, maj = Util.gc_since g in
          words := !words +. w;
          majors := !majors + maj;
          untraced := !untraced +. dt;
          Tracer.enabled := true;
          let _, wall = Sweep.decompose ~config ~req:i pool.(i mod count) in
          Tracer.enabled := false;
          traced := !traced +. wall)
    in
    Tracer.enabled := true;
    let clusters =
      (Decomp.Partition.partition ~max_cluster:cluster_size pool.(0)).Decomp.Partition.clusters
      |> Array.to_list
      |> List.filter_map (fun c ->
             if Array.length c.Decomp.Partition.cl_tables > 1 then Some c.Decomp.Partition.cl_query else None)
    in
    Sweep.run ~opts ~replay_policies:[ O.Ws_greedy; O.Ws_portfolio ] ~decompose_small:false ~serve:true
      ~mono:clusters ~wide:(Array.to_list pool);
    Tracer.enabled := false;
    Sweep.emit
      ~gc_words_per_query:(!words /. 1e6 /. float_of_int n)
      ~gc_major:!majors
      ~overhead:((!traced -. !untraced) /. !untraced)
      m;
    {
      Run.tally;
      metrics = m;
      report =
        [
          ("work_digest", Json.String (Util.digest_hex digest));
          ("digest_items", Json.Int digest.Util.items);
          ("repeat_mismatches", Json.Int !repeat_mismatches);
          ("replayed", Json.Int n);
        ];
    }
  end
