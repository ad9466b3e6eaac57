(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables 1-2, Figures 1-2) plus the encoding ablations and
   the parallel branch & bound scaling table. Run-to-run timing of the
   optimizer, the service and the decomposition pipeline is perfbench's
   job (perfbench/, declared in BENCHMARK.json).

   Scale knobs (the defaults finish in a few minutes):
     JOINOPT_BENCH_SCALE=quick    tiny figure-2 grid, short budgets
     JOINOPT_BENCH_SCALE=default
     JOINOPT_BENCH_SCALE=paper    the paper's grid: sizes up to 60 tables
                                  and a 60 s budget per query (hours!)

   With --json the human-readable tables go to stderr and a machine
   summary (the scale and the per-phase wall clock) is printed to
   stdout. *)

module Experiments = Joinopt.Experiments
module Workload = Relalg.Workload
module Join_graph = Relalg.Join_graph
module Json = Service.Json

type scale = Quick | Default | Paper

let scale =
  match Sys.getenv_opt "JOINOPT_BENCH_SCALE" with
  | Some "quick" -> Quick
  | Some "paper" -> Paper
  | _ -> Default

let json_mode = Array.exists (fun a -> a = "--json") Sys.argv

(* In --json mode stdout is reserved for the JSON document, so every
   table is printed to stderr. A dedicated formatter (rather than
   redirecting std_formatter) because the Format module rebinds the
   standard formatters to their original channels when the first domain
   is spawned. *)
let out_ppf = if json_mode then Format.err_formatter else Format.std_formatter
let printf fmt = Format.fprintf out_ppf fmt

(* Per-phase wall clock, accumulated by [timed] and reported in the
   --json summary. *)
let phase_times : (string * float) list ref = ref []

let timed name f =
  let t0 = Milp.Budget.now () in
  f ();
  phase_times := (name, Milp.Budget.now () -. t0) :: !phase_times

(* ------------------------------------------------------------------ *)
(* Figures                                                              *)
(* ------------------------------------------------------------------ *)

let fig2_config () =
  match scale with
  | Quick ->
    {
      Experiments.default_fig2 with
      Experiments.f2_sizes = [ 4; 6 ];
      f2_queries_per_cell = 2;
      f2_budget = 1.;
      f2_sample_times = [ 0.5; 1. ];
    }
  | Default -> Experiments.default_fig2
  | Paper ->
    {
      Experiments.default_fig2 with
      Experiments.f2_sizes = [ 10; 20; 30; 40; 50; 60 ];
      f2_queries_per_cell = 20;
      f2_budget = 60.;
      f2_sample_times = [ 6.; 12.; 18.; 24.; 30.; 36.; 42.; 48.; 54.; 60. ];
    }

(* ------------------------------------------------------------------ *)
(* Ablations over the encoding's design choices                         *)
(* ------------------------------------------------------------------ *)

let run_ablations () =
  let budget = match scale with Quick -> 2. | Default -> 5. | Paper -> 15. in
  let q = Workload.generate ~seed:9 ~shape:Join_graph.Star ~num_tables:9 () in
  printf
    "Ablations (star, 9 tables, %gs budget): encoding/solver design choices@." budget;
  printf "%-34s %6s %8s %8s %12s %10s %8s %12s@." "configuration" "vars" "constrs"
    "nodes" "true cost" "bound" "status" "provenance";
  let base_enc = Joinopt.Encoding.default_config in
  let base_solver = { Milp.Solver.default_params with Milp.Solver.cut_rounds = 0 } in
  let run name enc_config solver warm_start =
    let config =
      {
        Joinopt.Optimizer.default_config with
        Joinopt.Optimizer.encoding = enc_config;
        solver;
        warm_start;
      }
      |> Joinopt.Optimizer.with_time_limit budget
    in
    let r = Joinopt.Optimizer.optimize ~config q in
    printf "%-34s %6d %8d %8d %12s %10.3g %8s %12s@." name r.Joinopt.Optimizer.num_vars
      r.Joinopt.Optimizer.num_constrs r.Joinopt.Optimizer.nodes
      (match r.Joinopt.Optimizer.true_cost with Some c -> Printf.sprintf "%.6g" c | None -> "-")
      r.Joinopt.Optimizer.bound
      (match r.Joinopt.Optimizer.status with
      | Milp.Branch_bound.Optimal -> "opt"
      | Milp.Branch_bound.Feasible -> "feas"
      | Milp.Branch_bound.Infeasible -> "inf"
      | Milp.Branch_bound.Unbounded -> "unb"
      | Milp.Branch_bound.Unknown -> "unk")
      (match r.Joinopt.Optimizer.provenance with
      | Some p -> Joinopt.Optimizer.provenance_to_string p
      | None -> "-")
  in
  run "baseline (reduced, mono, central)" base_enc base_solver Joinopt.Optimizer.Ws_greedy;
  run "paper formulation"
    { base_enc with Joinopt.Encoding.formulation = Joinopt.Encoding.Full_paper }
    base_solver Joinopt.Optimizer.Ws_greedy;
  run "no monotone ladder"
    { base_enc with Joinopt.Encoding.monotone_ladder = false }
    base_solver Joinopt.Optimizer.Ws_greedy;
  run "floor-step rounding"
    { base_enc with Joinopt.Encoding.rounding = Joinopt.Thresholds.Floor_steps }
    base_solver Joinopt.Optimizer.Ws_greedy;
  run "ceil-step rounding"
    { base_enc with Joinopt.Encoding.rounding = Joinopt.Thresholds.Ceil_steps }
    base_solver Joinopt.Optimizer.Ws_greedy;
  run "no adaptive range cap"
    { base_enc with Joinopt.Encoding.adaptive_cap = false }
    base_solver Joinopt.Optimizer.Ws_greedy;
  run "no greedy MIP start" base_enc base_solver Joinopt.Optimizer.Ws_off;
  run "with root Gomory cuts" base_enc
    { base_solver with Milp.Solver.cut_rounds = 3 }
    Joinopt.Optimizer.Ws_greedy;
  run "no presolve" base_enc { base_solver with Milp.Solver.presolve = false } Joinopt.Optimizer.Ws_greedy;
  printf "@."

(* ------------------------------------------------------------------ *)
(* Parallel branch & bound scaling                                      *)
(* ------------------------------------------------------------------ *)

(* Wall-clock per jobs value on one query, plus an identity check on the
   certified result. Timings are reported, never asserted: speedup
   depends on the machine's core count (this box may have one core), but
   the incumbent must match bit-for-bit on every machine. *)
let run_jobs_scaling () =
  let budget = match scale with Quick -> 2. | Default -> 10. | Paper -> 60. in
  let num_tables = 10 in
  let q = Workload.generate ~seed:11 ~shape:Join_graph.Star ~num_tables () in
  printf
    "Parallel scaling (star, %d tables, %gs budget; %d core(s) recommended by the runtime):@."
    num_tables budget
    (Domain.recommended_domain_count ());
  printf "%-6s %10s %12s %12s %8s@." "jobs" "seconds" "true cost" "objective" "nodes";
  let baseline = ref None in
  List.iter
    (fun jobs ->
      let config =
        Joinopt.Optimizer.default_config
        |> Joinopt.Optimizer.with_time_limit budget
        |> Joinopt.Optimizer.with_jobs jobs
      in
      let t0 = Milp.Budget.now () in
      let r = Joinopt.Optimizer.optimize ~config q in
      let dt = Milp.Budget.now () -. t0 in
      let agree =
        match !baseline with
        | None ->
          baseline := Some (r.Joinopt.Optimizer.objective, r.Joinopt.Optimizer.true_cost);
          ""
        | Some (obj, tc) ->
          if obj = r.Joinopt.Optimizer.objective && tc = r.Joinopt.Optimizer.true_cost then
            "  (= jobs 1)"
          else "  (DIFFERS from jobs 1 — expected only under a tight time limit)"
      in
      printf "%-6d %10.2f %12s %12s %8d%s@." jobs dt
        (match r.Joinopt.Optimizer.true_cost with Some c -> Printf.sprintf "%.6g" c | None -> "-")
        (match r.Joinopt.Optimizer.objective with Some o -> Printf.sprintf "%.6g" o | None -> "-")
        r.Joinopt.Optimizer.nodes agree)
    [ 1; 2; 4 ];
  printf "@."

let () =
  timed "tables_1_2" (fun () ->
      printf "%a@." Experiments.pp_table1 ();
      printf "%a@." Experiments.pp_table2 ());
  timed "figure_1" (fun () ->
      let fig1 = Experiments.figure1 () in
      printf "%a@." Experiments.pp_figure1 fig1);
  timed "ablations" run_ablations;
  timed "jobs_scaling" run_jobs_scaling;
  timed "figure_2" (fun () ->
      let config = fig2_config () in
      printf
        "Running Figure 2 grid: %d shapes x %d sizes x 4 algorithms x %d queries, %gs budget...@."
        (List.length config.Experiments.f2_shapes)
        (List.length config.Experiments.f2_sizes)
        config.Experiments.f2_queries_per_cell config.Experiments.f2_budget;
      let fig2 = Experiments.figure2 ~config () in
      printf "%a@." Experiments.pp_figure2 fig2);
  if json_mode then begin
    Format.pp_print_flush out_ppf ();
    let summary =
      Json.Obj
        [
          ( "scale",
            Json.String
              (match scale with Quick -> "quick" | Default -> "default" | Paper -> "paper")
          );
          ( "phases",
            Json.Obj (List.rev_map (fun (n, t) -> (n, Json.Float t)) !phase_times) );
        ]
    in
    print_string (Json.to_string summary);
    print_newline ()
  end
