(* solve_grid and solve_portfolio: the paper's query shapes solved to a
   certified optimum through [Joinopt.Optimizer.optimize], one query at
   a time at one branch & bound domain. The two workloads share their
   instances and differ only in how the first incumbent is seeded. *)

module O = Joinopt.Optimizer
module JG = Relalg.Join_graph
module Json = Service.Json

(* Chain, star, cycle and clique at five tables, and a six-table star.
   Instances interleave the groups, so any prefix of the list has the
   same mix. *)
let groups = [| (JG.Chain, 5); (JG.Star, 5); (JG.Cycle, 5); (JG.Clique, 5); (JG.Star, 6) |]

let instances ~seed ~count =
  Array.init count (fun i ->
      let shape, num_tables = groups.(i mod Array.length groups) in
      Relalg.Workload.generate ~seed:(Util.derive seed "grid" i) ~shape ~num_tables ())

(* Objectives and node counts of the first [digest_len] queries form the
   work digest: deterministic at one domain with no binding limit. *)
let digest_len = 60

let check tally ~q ~reference (r : O.result) =
  Checks.attempt tally;
  (* A recovered solve returns the final certificate of its ladder, so
     a certified one is a certified optimum. *)
  let certified =
    r.O.stopped = Milp.Branch_bound.Completed
    && (match r.O.certificate with Milp.Solver.Certified _ -> true | _ -> false)
    && (match r.O.provenance with Some (`Milp_certified | `Recovered _) -> true | _ -> false)
  in
  match (r.O.plan, r.O.true_cost) with
  | Some p, Some tc -> (
    let cost q p = Relalg.Cost_model.plan_cost ~metric:Relalg.Cost_model.Operator_costs q p in
    match Checks.plan ~exact:true ~cost ~reference q p tc with
    | Error msg -> Checks.wrong tally msg
    | Ok ratio ->
      Util.push tally.Checks.ratios ratio;
      (match r.O.provenance with
      | Some (`Recovered _) when certified -> Checks.recovered tally
      | _ -> ());
      if not certified then
        Checks.fail tally
          (Printf.sprintf "%s query: stopped %s, provenance %s"
             (JG.shape_to_string (JG.classify q))
             (match r.O.stopped with
             | Milp.Branch_bound.Completed -> "completed"
             | Milp.Branch_bound.Time_limit -> "time-limit"
             | Milp.Branch_bound.Node_limit -> "node-limit"
             | Milp.Branch_bound.Interrupted -> "interrupted")
             (match r.O.provenance with Some p -> O.provenance_to_string p | None -> "none")))
  | _ -> Checks.wrong tally "no plan returned"

let run ~policy (opts : Run.opts) =
  let config = Layers.config policy in
  let count = if opts.Run.short then 10 else 1000 in
  (* The warm-up solves a fixed set of queries, the same for every seed:
     solve times vary too much between instances for a seed-drawn
     warm-up to keep [setup_s] steady. *)
  let warmup = instances ~seed:0 ~count:(if opts.Run.short then 1 else 5) in
  let (pool, refs), setup_s =
    Util.repeated_setup (Run.setups opts) (fun () ->
        let pool = instances ~seed:opts.Run.seed ~count in
        let refs = Array.map (Layers.reference_cost config) pool in
        Array.iter (fun q -> ignore (O.optimize ~config q)) warmup;
        (pool, refs))
  in
  let tally = Checks.tally () in
  let digest = Util.digest () in
  let latencies = Util.sample () in
  let m = Util.metrics () in
  let solve i =
    let q = pool.(i mod count) in
    let r, dt = Util.time (fun () -> O.optimize ~config q) in
    check tally ~q ~reference:refs.(i mod count) r;
    if i < digest_len then
      Util.digest_add digest [ string_of_int i; Util.opt_g17 r.O.objective; string_of_int r.O.nodes ];
    (r, dt)
  in
  if not opts.Run.trace then begin
    let n, elapsed, ops =
      Run.timed_loop ~seconds:opts.Run.seconds (fun i ->
          let _, dt = solve i in
          Util.push latencies dt)
    in
    Run.end_to_end ~setup_s ~elapsed ~ops ~latencies:(Util.values latencies) tally m;
    {
      Run.tally;
      metrics = m;
      report =
        [
          ("work_digest", Json.String (Util.digest_hex digest));
          ("digest_items", Json.Int digest.Util.items);
          ("samples", Run.samples n);
        ];
    }
  end
  else begin
    (* Each query runs untraced, then as a traced replay that must
       reproduce its objective and node count. *)
    let mismatches = ref 0 in
    let untraced = ref 0. and traced = ref 0. in
    let words = ref 0. and majors = ref 0 in
    let iters_digest = Util.digest () in
    let n, _, _ =
      Run.timed_loop ~seconds:(0.6 *. opts.Run.seconds) (fun i ->
          let g = Util.gc_mark () in
          let r, dt = solve i in
          let w, maj = Util.gc_since g in
          words := !words +. w;
          majors := !majors + maj;
          untraced := !untraced +. dt;
          Tracer.enabled := true;
          let rp = Layers.replay ~config ~req:i pool.(i mod count) in
          Tracer.enabled := false;
          traced := !traced +. rp.Layers.rp_wall;
          if rp.Layers.rp_objective <> r.O.objective || rp.Layers.rp_nodes <> r.O.nodes then begin
            incr mismatches;
            Checks.wrong tally
              (Printf.sprintf "traced replay of query %d: objective %s nodes %d, untraced %s nodes %d" i
                 (Util.opt_g17 rp.Layers.rp_objective) rp.Layers.rp_nodes (Util.opt_g17 r.O.objective)
                 r.O.nodes)
          end;
          if i < digest_len then
            Util.digest_add iters_digest
              [
                string_of_int i;
                Util.opt_g17 rp.Layers.rp_objective;
                string_of_int rp.Layers.rp_nodes;
                string_of_int rp.Layers.rp_iters;
              ])
    in
    Tracer.enabled := true;
    let other = match policy with O.Ws_portfolio -> O.Ws_greedy | _ -> O.Ws_portfolio in
    Sweep.run ~opts ~replay_policies:[ other ] ~decompose_small:true ~serve:true
      ~mono:(Array.to_list (Array.sub pool 0 (min 8 count)))
      ~wide:[];
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
          ("work_digest_iters", Json.String (Util.digest_hex iters_digest));
          ("digest_items", Json.Int digest.Util.items);
          ("replayed", Json.Int n);
          ("replay_mismatches", Json.Int !mismatches);
        ];
    }
  end
