(* joinopt — MILP-based join ordering from the command line.

   Subcommands:
     optimize    compile a query to a MILP and solve it (anytime)
     batch       optimize a stream of queries through the multi-query
                 service (plan cache + domain-parallel scheduler)
     serve       persistent line-delimited-JSON server (admission
                 control, degradation ladder, snapshotted plan cache)
     dp          run the Selinger dynamic programming baseline
     greedy      run the greedy heuristic
     export-lp   write the MILP in CPLEX LP format
     fig1/fig2   reproduce the paper's figures
     tables      print the paper's Tables 1 and 2 *)

open Cmdliner
module Workload = Relalg.Workload
module Join_graph = Relalg.Join_graph
module Query_file = Relalg.Query_file
module Plan = Relalg.Plan
module Optimizer = Joinopt.Optimizer
module Cost_enc = Joinopt.Cost_enc
module Thresholds = Joinopt.Thresholds
module Experiments = Joinopt.Experiments
module Scheduler = Service.Scheduler
module Plan_cache = Service.Plan_cache
module Json = Service.Json

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let shape_conv =
  let parse = function
    | "chain" -> Ok Join_graph.Chain
    | "star" -> Ok Join_graph.Star
    | "cycle" -> Ok Join_graph.Cycle
    | "clique" -> Ok Join_graph.Clique
    | s -> Error (`Msg ("unknown shape: " ^ s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Join_graph.shape_to_string s))

let precision_conv =
  let parse = function
    | "low" -> Ok Thresholds.Low
    | "medium" -> Ok Thresholds.Medium
    | "high" -> Ok Thresholds.High
    | s -> (
      match float_of_string_opt s with
      | Some f when f > 1. -> Ok (Thresholds.Custom f)
      | _ -> Error (`Msg ("unknown precision: " ^ s)))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Thresholds.precision_to_string p))

let cost_conv =
  let parse = function
    | "hash" -> Ok (Cost_enc.Fixed_operator Plan.Hash_join)
    | "smj" -> Ok (Cost_enc.Fixed_operator Plan.Sort_merge_join)
    | "bnl" -> Ok (Cost_enc.Fixed_operator Plan.Block_nested_loop)
    | "cout" -> Ok Cost_enc.Cout
    | "choose" ->
      Ok
        (Cost_enc.Choose_operator
           [ Plan.Hash_join; Plan.Sort_merge_join; Plan.Block_nested_loop ])
    | s -> Error (`Msg ("unknown cost model: " ^ s))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Cost_enc.spec_to_string c))

(* Reject nonsense like --jobs 0 or --cache-size -3 at parse time with a
   usage error, instead of leaning on the silent >= 1 clamp downstream. *)
let positive_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be a positive integer, got %d" what v))
    | None -> Error (`Msg (Printf.sprintf "%s must be a positive integer, got '%s'" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let query_term =
  let file =
    Arg.(value & opt (some string) None & info [ "query"; "q" ] ~docv:"FILE"
           ~doc:"Query file (see lib/relalg/query_file.mli for the format; any number of \
                 tables — queries past the monolithic ceiling need $(b,--decompose)).")
  in
  let shape =
    Arg.(value & opt shape_conv Join_graph.Star & info [ "shape" ] ~docv:"SHAPE"
           ~doc:"Join graph shape for generated queries: chain, star, cycle, clique \
                 (with $(b,--clusters): the intra-cluster shape).")
  in
  let tables =
    Arg.(value & opt int 10 & info [ "tables"; "n" ] ~docv:"N"
           ~doc:"Number of tables for generated queries.")
  in
  let clusters =
    Arg.(value & opt (some (positive_int_conv "--clusters")) None & info [ "clusters" ]
           ~docv:"K"
           ~doc:"Generate a clustered query of $(docv) densely-joined clusters of \
                 $(b,--cluster-size) tables linked by weak seam predicates (the 100+-table \
                 decomposition workload) instead of a flat $(b,--shape) query.")
  in
  let cluster_size =
    Arg.(value & opt (positive_int_conv "--cluster-size") 10 & info [ "cluster-size" ]
           ~docv:"M" ~doc:"Tables per generated cluster (only with $(b,--clusters)).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.") in
  let build file shape tables clusters cluster_size seed =
    match file with
    | Some path -> (
      match Query_file.of_file path with Ok q -> Ok q | Error m -> Error (`Msg m))
    | None -> (
      match clusters with
      | Some num_clusters ->
        Ok
          (Workload.generate_clustered ~cluster_shape:shape ~seed ~num_clusters
             ~cluster_size ())
      | None -> Ok (Workload.generate ~seed ~shape ~num_tables:tables ()))
  in
  Term.(term_result (const build $ file $ shape $ tables $ clusters $ cluster_size $ seed))

let budget_term =
  Arg.(value & opt float 10. & info [ "budget"; "time-limit"; "t" ] ~docv:"SECONDS"
         ~doc:"Optimization time budget (wall clock, covering presolve, cuts, search \
               and recovery).")

let precision_term =
  Arg.(value & opt precision_conv Thresholds.Medium & info [ "precision"; "p" ]
         ~docv:"PRECISION" ~doc:"Cardinality approximation precision: low, medium, high, or a \
                                 tolerance factor > 1.")

let cost_term =
  Arg.(value & opt cost_conv (Cost_enc.Fixed_operator Plan.Hash_join)
         & info [ "cost" ] ~docv:"MODEL" ~doc:"Cost model: hash, smj, bnl, cout, choose.")

let warm_policy_conv =
  let parse s =
    match Optimizer.warm_start_of_string s with Ok w -> Ok w | Error m -> Error (`Msg m)
  in
  let print ppf w = Format.pp_print_string ppf (Optimizer.warm_start_to_string w) in
  Arg.conv (parse, print)

let warm_start_term =
  Arg.(value & opt warm_policy_conv Optimizer.Ws_greedy & info [ "warm-start" ] ~docv:"MODE"
         ~doc:"MIP-start policy: $(b,off) (cold start), $(b,greedy) (seed the greedy \
               heuristic's plan; the default), or $(b,portfolio) (race greedy, IKKBZ and \
               simulated annealing under a slice of the budget and seed the best \
               certified finisher). Every candidate is re-certified against the \
               original formulation before it is trusted.")

let warm_mode_conv =
  let parse s =
    match Service.Protocol.warm_of_string s with Ok w -> Ok w | Error m -> Error (`Msg m)
  in
  let print ppf w = Format.pp_print_string ppf (Service.Protocol.warm_to_string w) in
  Arg.conv (parse, print)

let warm_mode_term =
  Arg.(value & opt warm_mode_conv Service.Protocol.Warm_cache & info [ "warm-start" ]
         ~docv:"MODE"
         ~doc:"MIP-start mode: $(b,off), $(b,greedy), $(b,portfolio), or $(b,cache) (the \
               default: prefer a translated plan-cache entry for the same canonical \
               query, falling back to the greedy seed).")

(* --- decomposition knobs (optimize / batch / serve) ----------------- *)

let decomp_policy_conv =
  let parse s =
    match Optimizer.decomp_policy_of_string s with Ok p -> Ok p | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Optimizer.decomp_policy_to_string p))

let seam_conv =
  let parse s =
    match Optimizer.seam_of_string s with Ok h -> Ok h | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf h -> Format.pp_print_string ppf (Optimizer.seam_to_string h))

(* The same strict bounds [Optimizer.with_decomp] enforces, rejected at
   parse time as a usage error instead of an exception mid-run. *)
let int_at_least what lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be >= %d, got %d" what lo v))
    | None -> Error (`Msg (Printf.sprintf "%s must be an integer >= %d, got '%s'" what lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let int_in_range what lo hi =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo && v <= hi -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be in [%d, %d], got %d" what lo hi v))
    | None ->
      Error (`Msg (Printf.sprintf "%s must be an integer in [%d, %d], got '%s'" what lo hi s))
  in
  Arg.conv (parse, Format.pp_print_int)

let decomp_term ~default_policy =
  let policy =
    Arg.(value & opt decomp_policy_conv default_policy & info [ "decompose" ] ~docv:"POLICY"
           ~doc:"Decomposition policy: $(b,off) (monolithic only; queries past the mask \
                 ceiling are refused), $(b,auto) (partition past $(b,--decompose-threshold) \
                 tables, and always past the ceiling), or $(b,force) (partition every \
                 query of three or more tables).")
  in
  let threshold =
    Arg.(value & opt (int_at_least "--decompose-threshold" 2)
           Optimizer.default_decomp.Optimizer.dc_threshold
         & info [ "decompose-threshold" ] ~docv:"N"
             ~doc:"With $(b,--decompose=auto): partition queries of more than $(docv) \
                   tables. Must be >= 2.")
  in
  let max_cluster =
    Arg.(value & opt
           (int_in_range "--max-cluster-size" 2 Optimizer.max_monolithic_tables)
           Optimizer.default_decomp.Optimizer.dc_max_cluster
         & info [ "max-cluster-size" ] ~docv:"M"
             ~doc:"Largest cluster the partitioner may build; each cluster is solved by \
                   the certified MILP pipeline, so $(docv) is capped at the monolithic \
                   table ceiling.")
  in
  let seam =
    Arg.(value & opt seam_conv Optimizer.default_decomp.Optimizer.dc_seam
         & info [ "seam" ] ~docv:"HEURISTIC"
             ~doc:"Heuristic ordering the solved clusters at the seams: $(b,ikkbz) \
                   (IKKBZ on the contracted cluster graph, greedy fallback on cyclic \
                   seams) or $(b,greedy).")
  in
  let build dc_policy dc_threshold dc_max_cluster dc_seam =
    { Optimizer.dc_policy; dc_threshold; dc_max_cluster; dc_seam }
  in
  Term.(const build $ policy $ threshold $ max_cluster $ seam)

let jobs_term =
  Arg.(value & opt (positive_int_conv "--jobs") 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Domains used by the branch & bound. 1 is the serial engine; N>1 \
               adds N-1 speculative LP worker domains. The certified plan is \
               identical for every value. Must be positive.")

let checkpoint_term =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Persist the search state to $(docv) periodically and on any early stop, \
               so an interrupted or killed solve can be continued with $(b,--resume).")

let checkpoint_every_term =
  Arg.(value & opt int Milp.Checkpoint.default_every_nodes
         & info [ "checkpoint-every" ] ~docv:"NODES"
             ~doc:"Checkpoint cadence in branch & bound nodes.")

let resume_term =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Continue from the $(b,--checkpoint) file instead of starting fresh. A \
               missing or damaged checkpoint falls back to a fresh solve.")

let lint_conv =
  let parse = function
    | "standard" -> Ok Milp.Lint.Standard
    | "strict" -> Ok Milp.Lint.Strict
    | s -> Error (`Msg ("unknown lint level: " ^ s ^ " (expected standard or strict)"))
  in
  let print ppf = function
    | Milp.Lint.Strict -> Format.pp_print_string ppf "strict"
    | Milp.Lint.Standard | Milp.Lint.Off -> Format.pp_print_string ppf "standard"
  in
  Arg.conv (parse, print)

let lint_term =
  Arg.(value & opt ~vopt:(Some Milp.Lint.Standard) (some lint_conv) None
         & info [ "lint" ] ~docv:"LEVEL"
             ~doc:"Run the static formulation auditor on the generated MILP and print \
                   its report. Plain $(b,--lint) fails (exit 3) on Error diagnostics; \
                   $(b,--lint=strict) also promotes Warn to failure. The solve still \
                   runs either way, so the report can be compared against the outcome.")

(* ------------------------------------------------------------------ *)
(* optimize                                                             *)
(* ------------------------------------------------------------------ *)

(* The decomposition path of [optimize]: partition, solve clusters,
   stitch, and print per-cluster provenance so the certified parts of
   the answer are distinguishable from the heuristic seams. *)
let run_optimize_decomposed config budget jobs query =
  let solve_budget = Milp.Budget.create ~limit:budget () in
  let d =
    Milp.Budget.with_sigint solve_budget (fun () ->
        Decomp.Decompose.optimize ~config ~budget:solve_budget ~jobs query)
  in
  Format.printf "decomposed: %d tables into %d clusters (seam %s%s%s) in %.2fs@."
    (Relalg.Query.num_tables query) d.Decomp.Decompose.d_num_clusters
    d.Decomp.Decompose.d_seam
    (if d.Decomp.Decompose.d_seam_fallback then ", seam fallback" else "")
    (if d.Decomp.Decompose.d_degraded then ", degraded" else "")
    d.Decomp.Decompose.d_elapsed;
  Array.iteri
    (fun i (cr : Decomp.Decompose.cluster_report) ->
      Format.printf "  cluster %d: %d tables, %s, stopped %s%s%s%s (%.2fs)@." i
        (Array.length cr.Decomp.Decompose.cr_tables) cr.Decomp.Decompose.cr_provenance
        cr.Decomp.Decompose.cr_stopped
        (if cr.Decomp.Decompose.cr_certified then ", certified" else "")
        (if cr.Decomp.Decompose.cr_degraded then ", degraded" else "")
        (match cr.Decomp.Decompose.cr_seed with
        | Some s -> ", seeded by " ^ s
        | None -> "")
        cr.Decomp.Decompose.cr_elapsed)
    d.Decomp.Decompose.d_clusters;
  Format.printf "plan: %a@.true cost: %.6g@." (Plan.pp_with_query query)
    d.Decomp.Decompose.d_plan d.Decomp.Decompose.d_true_cost;
  Format.printf "provenance: decomposed:%d:%s%s%s@." d.Decomp.Decompose.d_num_clusters
    d.Decomp.Decompose.d_seam
    (if d.Decomp.Decompose.d_seam_fallback then ":seam-fallback" else "")
    (if d.Decomp.Decompose.d_degraded then ":degraded" else "")

let run_optimize query budget precision cost jobs warm_start decomp checkpoint
    checkpoint_every resume lint verbose =
  let config =
    { Optimizer.default_config with Optimizer.cost }
    |> Optimizer.with_precision precision
    |> Optimizer.with_time_limit budget
    |> Optimizer.with_jobs jobs
    |> Optimizer.with_warm_start_policy warm_start
    |> Optimizer.with_decomp decomp
  in
  let config =
    match checkpoint with
    | Some path ->
      Optimizer.with_checkpoint
        { Milp.Checkpoint.ck_path = path; ck_every_nodes = checkpoint_every }
        config
    | None -> config
  in
  let config =
    match lint with Some level -> Optimizer.with_lint level config | None -> config
  in
  if Optimizer.should_decompose config query then
    run_optimize_decomposed config budget jobs query
  else if Relalg.Query.num_tables query > Optimizer.max_monolithic_tables then begin
    Format.eprintf
      "optimize: %d tables exceeds the monolithic ceiling of %d; rerun with \
       --decompose=auto@."
      (Relalg.Query.num_tables query) Optimizer.max_monolithic_tables;
    exit 2
  end
  else begin
  Format.printf "Query: %a@." Relalg.Query.pp query;
  let on_progress =
    if verbose then
      Some
        (fun tp ->
          Format.printf "  t=%6.2fs incumbent=%s bound=%.4g@." tp.Optimizer.tp_elapsed
            (match tp.Optimizer.tp_objective with Some v -> Printf.sprintf "%.4g" v | None -> "-")
            tp.Optimizer.tp_bound)
    else None
  in
  (* One budget for the whole invocation; Ctrl-C trips its cancellation
     token, so the solve drains, writes a final checkpoint and reports
     its best certified incumbent instead of dying. *)
  let solve_budget = Milp.Budget.create ~limit:budget () in
  let r =
    Milp.Budget.with_sigint solve_budget (fun () ->
        Optimizer.optimize ~config ~budget:solve_budget ~resume ?on_progress query)
  in
  Format.printf "MILP: %d vars, %d constraints; %d nodes in %.2fs@." r.Optimizer.num_vars
    r.Optimizer.num_constrs r.Optimizer.nodes r.Optimizer.elapsed;
  let lint_failed =
    match (lint, r.Optimizer.lint) with
    | Some level, Some report ->
      Format.printf "%a@." Milp.Lint.pp_report report;
      Milp.Lint.failed level report
    | _ -> false
  in
  (match (r.Optimizer.plan, r.Optimizer.true_cost) with
  | Some plan, Some cost ->
    (match r.Optimizer.objective with
    | Some obj ->
      Format.printf "plan: %a@.true cost: %.6g  (MILP objective %.6g, bound %.6g, factor %s)@."
        (Plan.pp_with_query query) plan cost obj r.Optimizer.bound
        (match Optimizer.guaranteed_factor ~objective:obj ~bound:r.Optimizer.bound with
        | f when Float.is_finite f -> Printf.sprintf "%.3g" f
        | _ -> "unbounded")
    | None -> Format.printf "plan: %a@.true cost: %.6g@." (Plan.pp_with_query query) plan cost)
  | _ -> Format.printf "no plan found within the budget@.");
  (match r.Optimizer.provenance with
  | Some p -> Format.printf "provenance: %s@." (Optimizer.provenance_to_string p)
  | None -> ());
  (match r.Optimizer.seed with
  | Some s ->
    Format.printf "warm start: seeded by %s (objective %.6g)@." s.Milp.Warm_start.sd_source
      s.Milp.Warm_start.sd_objective
  | None -> Format.printf "warm start: none (cold)@.");
  Format.printf "certificate: %s@."
    (match r.Optimizer.certificate with
    | Milp.Solver.Certified rep ->
      Printf.sprintf "certified (max residual %.3g, max integrality violation %.3g)"
        rep.Milp.Certify.r_max_residual rep.Milp.Certify.r_max_int_viol
    | Milp.Solver.Uncertified msg -> "uncertified: " ^ msg
    | Milp.Solver.No_incumbent -> "no incumbent");
  Format.printf "status: %s@."
    (match r.Optimizer.status with
    | Milp.Branch_bound.Optimal -> "optimal (within MILP approximation)"
    | Milp.Branch_bound.Feasible -> "feasible (budget exhausted)"
    | Milp.Branch_bound.Infeasible -> "infeasible"
    | Milp.Branch_bound.Unbounded -> "unbounded"
    | Milp.Branch_bound.Unknown -> "unknown");
  Format.printf "stopped: %s%s@."
    (match r.Optimizer.stopped with
    | Milp.Branch_bound.Completed -> "completed"
    | Milp.Branch_bound.Time_limit -> "time limit"
    | Milp.Branch_bound.Node_limit -> "node limit"
    | Milp.Branch_bound.Interrupted -> "interrupted (best certified incumbent returned)")
    (if r.Optimizer.resumed then ", resumed from checkpoint" else "");
  if lint_failed then begin
    Format.printf "lint: formulation audit failed at the requested level@.";
    exit 3
  end
  end

let optimize_cmd =
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Stream anytime progress.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a join query through the MILP encoding")
    Term.(
      const run_optimize $ query_term $ budget_term $ precision_term $ cost_term $ jobs_term
      $ warm_start_term $ decomp_term ~default_policy:Optimizer.Dc_off $ checkpoint_term
      $ checkpoint_every_term $ resume_term $ lint_term $ verbose)

(* ------------------------------------------------------------------ *)
(* batch — the multi-query service front end                            *)
(* ------------------------------------------------------------------ *)

let read_stdin_paths () =
  let rec go acc =
    match input_line stdin with
    | line ->
      let line = String.trim line in
      go (if line = "" then acc else line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* Requests come from positional FILES, newline-separated paths on
   stdin, or the duplicate-heavy synthetic generator. *)
let batch_requests_term =
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"FILES"
           ~doc:"Query files (see lib/relalg/query_file.mli for the format).")
  in
  let use_stdin =
    Arg.(value & flag & info [ "stdin" ]
           ~doc:"Also read newline-separated query file paths from standard input.")
  in
  let gen =
    Arg.(value & opt (some (positive_int_conv "--gen")) None & info [ "gen" ] ~docv:"COUNT"
           ~doc:"Generate $(docv) queries instead of reading files (uses $(b,--shape), \
                 $(b,--tables), $(b,--seed)); a $(b,--dup) fraction of them are permuted \
                 structural duplicates of earlier ones.")
  in
  let dup =
    let fraction_conv =
      let parse s =
        match float_of_string_opt s with
        | Some f when f >= 0. && f <= 1. -> Ok f
        | _ -> Error (`Msg ("--dup must be a fraction in [0, 1], got " ^ s))
      in
      Arg.conv (parse, Format.pp_print_float)
    in
    Arg.(value & opt fraction_conv 0.5 & info [ "dup" ] ~docv:"FRACTION"
           ~doc:"Fraction of generated queries that duplicate an earlier one under a \
                 random table/predicate permutation (only with $(b,--gen)).")
  in
  let shape =
    Arg.(value & opt shape_conv Join_graph.Star & info [ "shape" ] ~docv:"SHAPE"
           ~doc:"Join graph shape for generated queries.")
  in
  let tables =
    Arg.(value & opt (positive_int_conv "--tables") 6 & info [ "tables"; "n" ] ~docv:"N"
           ~doc:"Number of tables for generated queries. Sizes past the monolithic \
                 ceiling are supported but require $(b,--decompose=auto) (the batch \
                 refuses them up front otherwise).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.") in
  let build files use_stdin gen dup shape tables seed =
    match gen with
    | Some count ->
      Ok (Scheduler.synthetic_batch ~dup_fraction:dup ~seed ~shape ~num_tables:tables ~count ())
    | None -> (
      let files = if use_stdin then files @ read_stdin_paths () else files in
      if files = [] then
        Error (`Msg "batch: no queries given (positional FILES, --stdin, or --gen COUNT)")
      else
        let rec load acc = function
          | [] -> Ok (List.rev acc)
          | path :: rest -> (
            match Query_file.of_file path with
            | Ok q -> load ({ Scheduler.r_label = path; r_query = q } :: acc) rest
            | Error m -> Error (`Msg (Printf.sprintf "%s: %s" path m)))
        in
        load [] files)
  in
  Term.(term_result (const build $ files $ use_stdin $ gen $ dup $ shape $ tables $ seed))

let json_of_opt_float = function Some f -> Json.Float f | None -> Json.Null

let json_of_report query_of_label (r : Scheduler.report) =
  Json.Obj
    [
      ("label", Json.String r.Scheduler.o_label);
      ("fingerprint", Json.String r.Scheduler.o_fingerprint);
      ("source", Json.String (Scheduler.source_to_string r.Scheduler.o_source));
      ("provenance", Json.String r.Scheduler.o_provenance);
      ( "plan",
        match r.Scheduler.o_plan with
        | Some plan -> (
          match query_of_label r.Scheduler.o_label with
          | Some q -> Json.String (Format.asprintf "%a" (Plan.pp_with_query q) plan)
          | None -> Json.String (Format.asprintf "%a" Plan.pp plan))
        | None -> Json.Null );
      ("objective", json_of_opt_float r.Scheduler.o_objective);
      ("bound", Json.Float r.Scheduler.o_bound);
      ("true_cost", json_of_opt_float r.Scheduler.o_true_cost);
      ("decomposed", Json.Bool r.Scheduler.o_decomposed);
      ("elapsed", Json.Float r.Scheduler.o_elapsed);
    ]

let json_of_cache_stats (c : Plan_cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int c.Plan_cache.st_hits);
      ("misses", Json.Int c.Plan_cache.st_misses);
      ("stale_precision_hits", Json.Int c.Plan_cache.st_stale_hits);
      ("insertions", Json.Int c.Plan_cache.st_insertions);
      ("evictions", Json.Int c.Plan_cache.st_evictions);
      ("invalidated", Json.Int c.Plan_cache.st_invalidated);
      ("size", Json.Int c.Plan_cache.st_size);
      ("capacity", Json.Int c.Plan_cache.st_capacity);
      ("epoch", Json.Int c.Plan_cache.st_epoch);
    ]

let json_of_stats (s : Scheduler.stats) =
  Json.Obj
    [
      ("queries", Json.Int s.Scheduler.s_queries);
      ("domains", Json.Int s.Scheduler.s_domains);
      ("solved", Json.Int s.Scheduler.s_solved);
      ("cache_hits", Json.Int s.Scheduler.s_cache_hits);
      ("warm_starts", Json.Int s.Scheduler.s_warm_starts);
      ("shared_in_flight", Json.Int s.Scheduler.s_shared);
      ("failures", Json.Int s.Scheduler.s_failures);
      ( "decomposition",
        Json.Obj
          [
            ("queries", Json.Int s.Scheduler.s_decomposed);
            ("clusters_solved", Json.Int s.Scheduler.s_clusters_solved);
            ("seam_fallbacks", Json.Int s.Scheduler.s_seam_fallbacks);
          ] );
      ("elapsed", Json.Float s.Scheduler.s_elapsed);
      ("queries_per_sec", Json.Float s.Scheduler.s_qps);
      ( "cache",
        match s.Scheduler.s_cache with
        | Some c -> json_of_cache_stats c
        | None -> Json.Null );
    ]

let run_batch requests jobs cache_size no_cache per_query precision cost warm decomp bench =
  let config =
    { Optimizer.default_config with Optimizer.cost }
    |> Optimizer.with_precision precision
    |> Optimizer.with_time_limit per_query
    |> Optimizer.with_decomp decomp
  in
  (* Fail the whole batch up front — with the offending labels — rather
     than letting each oversized query surface as a per-request failure
     deep in the scheduler. *)
  (match
     List.filter_map
       (fun r ->
         if
           Relalg.Query.num_tables r.Scheduler.r_query > Optimizer.max_monolithic_tables
           && not (Optimizer.should_decompose config r.Scheduler.r_query)
         then Some r.Scheduler.r_label
         else None)
       requests
   with
  | [] -> ()
  | labels ->
    Format.eprintf
      "batch: %d quer%s exceed%s the monolithic ceiling of %d tables (%s); rerun with \
       --decompose=auto@."
      (List.length labels)
      (if List.length labels = 1 then "y" else "ies")
      (if List.length labels = 1 then "s" else "")
      Optimizer.max_monolithic_tables
      (String.concat ", " labels);
    exit 2);
  (* MILP solves are CPU-bound: domains beyond the core count only add
     cross-domain GC synchronization, so the batch runs on at most
     [Domain.recommended_domain_count ()] of them. *)
  let domains = min jobs (max 1 (Domain.recommended_domain_count ())) in
  let cache = if no_cache then None else Some (Plan_cache.create ~capacity:cache_size ()) in
  let budget = Milp.Budget.create () in
  let reports, stats =
    Milp.Budget.with_sigint budget (fun () ->
        Scheduler.run ~config ?cache ~warm ~jobs:domains ~budget
          ~per_query_limit:per_query requests)
  in
  let queries = List.map (fun r -> (r.Scheduler.r_label, r.Scheduler.r_query)) requests in
  let query_of_label label = List.assoc_opt label queries in
  let baseline =
    if not bench then []
    else begin
      (* The bench baseline everyone quotes: no cache, one domain. *)
      Format.eprintf "batch: running cache-off sequential baseline...@.";
      let _, base =
        Milp.Budget.with_sigint budget (fun () ->
            Scheduler.run ~config ~warm ~jobs:1 ~budget ~per_query_limit:per_query
              requests)
      in
      [
        ("baseline", json_of_stats base);
        ( "speedup",
          Json.Float
            (if stats.Scheduler.s_elapsed > 0. then
               base.Scheduler.s_elapsed /. stats.Scheduler.s_elapsed
             else 0.) );
      ]
    end
  in
  let summary =
    Json.Obj
      ([
         ("jobs", Json.Int jobs);
         ( "cache_capacity",
           if no_cache then Json.Null else Json.Int cache_size );
         ("per_query_limit", Json.Float per_query);
         ("precision", Json.String (Thresholds.precision_to_string precision));
         ("cost", Json.String (Cost_enc.spec_to_string cost));
         ("warm_start", Json.String (Service.Protocol.warm_to_string warm));
         ("results", Json.List (List.map (json_of_report query_of_label) reports));
         ("stats", json_of_stats stats);
       ]
      @ baseline)
  in
  print_string (Json.to_string summary);
  print_newline ();
  Format.eprintf "batch: %d queries in %.2fs (%.1f q/s): %d solved, %d cache hits, %d \
                  warm-started, %d shared, %d decomposed (%d clusters, %d seam \
                  fallbacks), %d failures@."
    stats.Scheduler.s_queries stats.Scheduler.s_elapsed stats.Scheduler.s_qps
    stats.Scheduler.s_solved stats.Scheduler.s_cache_hits stats.Scheduler.s_warm_starts
    stats.Scheduler.s_shared stats.Scheduler.s_decomposed stats.Scheduler.s_clusters_solved
    stats.Scheduler.s_seam_fallbacks stats.Scheduler.s_failures;
  if stats.Scheduler.s_failures > 0 then exit 1

let batch_cmd =
  let cache_size =
    Arg.(value & opt (positive_int_conv "--cache-size") 256 & info [ "cache-size" ] ~docv:"N"
           ~doc:"Plan cache capacity in entries. Must be positive; use $(b,--no-cache) to \
                 disable caching instead of passing 0.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Disable the plan cache (every query is solved; in-flight dedup of \
                 concurrent identical queries still applies).")
  in
  let per_query =
    let seconds_conv =
      let parse s =
        match float_of_string_opt s with
        | Some f when Float.is_finite f && f > 0. -> Ok f
        | _ -> Error (`Msg ("--per-query-limit must be a positive number of seconds, got " ^ s))
      in
      Arg.conv (parse, Format.pp_print_float)
    in
    Arg.(value & opt seconds_conv 30. & info [ "per-query-limit" ] ~docv:"SECONDS"
           ~doc:"Wall-clock sub-deadline for each individual solve (drawn from the shared \
                 batch budget).")
  in
  let bench =
    Arg.(value & flag & info [ "bench" ]
           ~doc:"Also run the cache-off sequential baseline over the same batch and report \
                 the end-to-end speedup in the JSON summary.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Optimize a stream of queries through the multi-query service: canonical \
             fingerprints collapse structurally identical queries, a sharded LRU plan \
             cache serves repeats, in-flight duplicates are solved once, and solves fan \
             out across domains under one shared budget. Prints a JSON summary (per-query \
             provenance + cache statistics) on stdout.")
    Term.(
      const run_batch $ batch_requests_term $ jobs_term $ cache_size $ no_cache $ per_query
      $ precision_term $ cost_term $ warm_mode_term
      $ decomp_term ~default_policy:Optimizer.Dc_off $ bench)

(* ------------------------------------------------------------------ *)
(* serve — the persistent server                                        *)
(* ------------------------------------------------------------------ *)

let nonneg_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f >= 0. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "%s must be a finite number >= 0, got '%s'" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "%s must be a positive number, got '%s'" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let nonneg_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be >= 0, got %d" what v))
    | None -> Error (`Msg (Printf.sprintf "%s must be an integer >= 0, got '%s'" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let run_serve socket snapshot snapshot_every cache_size rate burst max_queue default_limit
    max_limit retries backoff degrade_after probe_every max_conns backlog max_write_buf
    watchdog_grace drain_limit jobs precision cost warm decomp =
  if default_limit > max_limit then
    `Error
      ( false,
        Printf.sprintf "--default-limit (%g) must not exceed --max-limit (%g)" default_limit
          max_limit )
  else begin
    let config =
      {
        Service.Server.sv_cache_capacity = cache_size;
        sv_snapshot_path = snapshot;
        sv_snapshot_every = snapshot_every;
        sv_rate = rate;
        sv_burst = burst;
        sv_max_queue = max_queue;
        sv_default_limit = default_limit;
        sv_max_limit = max_limit;
        sv_retries = retries;
        sv_backoff = backoff;
        sv_degrade_after = degrade_after;
        sv_probe_every = probe_every;
        sv_jobs = jobs;
        sv_precision = precision;
        sv_cost = cost;
        sv_warm = warm;
        sv_decomp = decomp;
        sv_max_conns = max_conns;
        sv_backlog = backlog;
        sv_max_write_buf = max_write_buf;
        sv_watchdog_grace = watchdog_grace;
        sv_drain_limit = drain_limit;
      }
    in
    let server = Service.Server.create ~config () in
    (match socket with
    | Some path ->
      Format.eprintf "joinopt serve: listening on %s@." path;
      Service.Server.serve_socket server ~path
    | None -> Service.Server.serve_fds server Unix.stdin Unix.stdout);
    `Ok ()
  end

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv) instead of stdin/stdout.")
  in
  let snapshot =
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE"
           ~doc:"Persist the plan cache to $(docv) (checkpoint envelope: atomic \
                 write-rename, digest-verified). Restored at startup when the file \
                 exists; a damaged snapshot means a cold cache, never a crash.")
  in
  let snapshot_every =
    Arg.(value & opt (nonneg_int_conv "--snapshot-every") 16 & info [ "snapshot-every" ]
           ~docv:"N" ~doc:"Snapshot after every $(docv) admitted optimize requests \
                           (0: only on request/shutdown).")
  in
  let cache_size =
    Arg.(value & opt (positive_int_conv "--cache-size") 1024 & info [ "cache-size" ]
           ~docv:"N" ~doc:"Plan cache capacity in entries.")
  in
  let rate =
    Arg.(value & opt (nonneg_float_conv "--rate") 50. & info [ "rate" ] ~docv:"R"
           ~doc:"Token-bucket refill per second per client (0 with a positive \
                 $(b,--burst): a fixed request allowance; used by the tests).")
  in
  let burst =
    Arg.(value & opt (nonneg_float_conv "--burst") 100. & info [ "burst" ] ~docv:"B"
           ~doc:"Token-bucket capacity per client; 0 disables rate admission.")
  in
  let max_queue =
    Arg.(value & opt (positive_int_conv "--max-queue") 64 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Pending requests beyond $(docv) in one input burst are rejected \
                 with overload:queue.")
  in
  let default_limit =
    Arg.(value & opt (positive_float_conv "--default-limit") 10. & info [ "default-limit" ]
           ~docv:"SECONDS" ~doc:"Per-request budget when the client names none.")
  in
  let max_limit =
    Arg.(value & opt (positive_float_conv "--max-limit") 120. & info [ "max-limit" ]
           ~docv:"SECONDS" ~doc:"Hard cap on client-requested budgets (larger requests \
                                 are clamped, not rejected).")
  in
  let retries =
    Arg.(value & opt (nonneg_int_conv "--retries") 2 & info [ "retries" ] ~docv:"N"
           ~doc:"Transient-failure retries per request.")
  in
  let backoff =
    Arg.(value & opt (nonneg_float_conv "--backoff") 0.02 & info [ "backoff" ] ~docv:"SECONDS"
           ~doc:"First retry pause; doubles per retry, capped by the request budget.")
  in
  let degrade_after =
    Arg.(value & opt (nonneg_int_conv "--degrade-after") 3 & info [ "degrade-after" ]
           ~docv:"N" ~doc:"Consecutive exact-path failures before degraded mode \
                           (0: never degrade).")
  in
  let probe_every =
    Arg.(value & opt (positive_int_conv "--probe-every") 4 & info [ "probe-every" ] ~docv:"K"
           ~doc:"In degraded mode, retry the exact path on every $(docv)-th request.")
  in
  let max_conns =
    Arg.(value & opt (positive_int_conv "--max-conns") 64 & info [ "max-conns" ] ~docv:"N"
           ~doc:"Simultaneous socket connections; further clients are answered \
                 rejected:overload:conns and closed immediately.")
  in
  let backlog =
    Arg.(value & opt (positive_int_conv "--backlog") 16 & info [ "backlog" ] ~docv:"N"
           ~doc:"Listen backlog of the server socket.")
  in
  let max_write_buf =
    Arg.(value & opt (positive_int_conv "--max-write-buf") (4 * 1024 * 1024)
         & info [ "max-write-buf" ] ~docv:"BYTES"
             ~doc:"Unread response bytes a connection may accumulate before the \
                   slow client is evicted (minimum 1024).")
  in
  let watchdog_grace =
    Arg.(value & opt (positive_float_conv "--watchdog-grace") 1. & info [ "watchdog-grace" ]
           ~docv:"SECONDS"
           ~doc:"Grace past a request's deadline before the watchdog cancels its \
                 budget; the same again before it force-answers with an error.")
  in
  let drain_limit =
    Arg.(value & opt (nonneg_float_conv "--drain-limit") 5. & info [ "drain-limit" ]
           ~docv:"SECONDS"
           ~doc:"Graceful-shutdown window: how long in-flight solves may keep \
                 running before the drain cancels them.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent optimizer server: line-delimited JSON requests over \
             stdin/stdout or a Unix-domain socket, with per-client admission control, \
             per-request deadlines, retry with backoff, a cache/heuristic degradation \
             ladder (degraded answers are tagged, never mislabeled as exact), and \
             crash-safe plan-cache snapshots.")
    Term.(
      ret
        (const run_serve $ socket $ snapshot $ snapshot_every $ cache_size $ rate $ burst
        $ max_queue $ default_limit $ max_limit $ retries $ backoff $ degrade_after
        $ probe_every $ max_conns $ backlog $ max_write_buf $ watchdog_grace $ drain_limit
        $ jobs_term $ precision_term $ cost_term $ warm_mode_term
        $ decomp_term ~default_policy:Optimizer.Dc_auto))

(* ------------------------------------------------------------------ *)
(* dp / greedy                                                          *)
(* ------------------------------------------------------------------ *)

let run_dp query budget =
  match Dp_opt.Selinger.optimize ~time_limit:budget query with
  | Dp_opt.Selinger.Complete r ->
    Format.printf "plan: %a@.cost: %.6g  (%d subsets, %.2fs)@."
      (Plan.pp_with_query query) r.Dp_opt.Selinger.plan r.Dp_opt.Selinger.cost
      r.Dp_opt.Selinger.subsets_explored r.Dp_opt.Selinger.elapsed
  | Dp_opt.Selinger.Timed_out { elapsed; subsets_explored } ->
    Format.printf "no plan: dynamic programming %s after %.2fs (%d subsets)@."
      (if subsets_explored = 0 then "refused (memory)" else "timed out")
      elapsed subsets_explored

let dp_cmd =
  Cmd.v
    (Cmd.info "dp" ~doc:"Run the Selinger dynamic programming baseline")
    Term.(const run_dp $ query_term $ budget_term)

let run_greedy query =
  let plan, cost = Dp_opt.Greedy.plan query in
  Format.printf "plan: %a@.cost: %.6g@." (Plan.pp_with_query query) plan cost

let greedy_cmd =
  Cmd.v (Cmd.info "greedy" ~doc:"Run the greedy heuristic") Term.(const run_greedy $ query_term)

let run_ikkbz query =
  match Dp_opt.Ikkbz.plan query with
  | Ok (plan, cost) ->
    Format.printf "plan: %a@.C_out: %.6g@." (Plan.pp_with_query query) plan cost
  | Error Dp_opt.Ikkbz.Not_a_tree ->
    Format.printf "IKKBZ needs an acyclic join graph of binary predicates@."

let ikkbz_cmd =
  Cmd.v
    (Cmd.info "ikkbz" ~doc:"Run the IKKBZ polynomial algorithm (acyclic queries)")
    Term.(const run_ikkbz $ query_term)

let run_anneal query budget seed =
  let r = Dp_opt.Annealing.simulated_annealing ~seed ~time_limit:budget query in
  Format.printf "plan: %a@.cost: %.6g  (%d moves — note: no optimality bound, the property                  the MILP approach adds)@."
    (Plan.pp_with_query query) r.Dp_opt.Annealing.plan r.Dp_opt.Annealing.cost
    r.Dp_opt.Annealing.moves_tried

let anneal_cmd =
  let seed = Arg.(value & opt int 0 & info [ "anneal-seed" ] ~docv:"SEED" ~doc:"Annealing seed.") in
  Cmd.v
    (Cmd.info "anneal" ~doc:"Run simulated annealing (randomized; no bounds)")
    Term.(const run_anneal $ query_term $ budget_term $ seed)

(* ------------------------------------------------------------------ *)
(* Section 5 extensions                                                 *)
(* ------------------------------------------------------------------ *)

let encoding_config precision =
  { Joinopt.Encoding.default_config with Joinopt.Encoding.precision }

let run_expensive query budget precision =
  let solver =
    Milp.Solver.with_time_limit budget
      { Milp.Solver.default_params with Milp.Solver.cut_rounds = 0 }
  in
  let result, outcome =
    Joinopt.Ext_expensive.optimize ~config:(encoding_config precision) ~solver query
  in
  match result with
  | Some (plan, schedule, cost) ->
    Format.printf "plan: %a@." (Plan.pp_with_query query) plan;
    Format.printf "schedule (predicate -> evaluated during join): %s@."
      (String.concat ", "
         (Array.to_list
            (Array.mapi
               (fun pi j -> Printf.sprintf "%s@j%d" query.Relalg.Query.predicates.(pi).Relalg.Predicate.pred_name j)
               schedule)));
    Format.printf "true cost (schedule-aware): %.6g  status: %s@." cost
      (match outcome.Milp.Branch_bound.o_status with
      | Milp.Branch_bound.Optimal -> "optimal"
      | _ -> "budget exhausted")
  | None -> Format.printf "no plan found within the budget@."

let expensive_cmd =
  Cmd.v
    (Cmd.info "expensive"
       ~doc:"Optimize with postponable expensive predicates (paper Section 5.1)")
    Term.(const run_expensive $ query_term $ budget_term $ precision_term)

let run_orders query budget precision sorted =
  let solver =
    Milp.Solver.with_time_limit budget
      { Milp.Solver.default_params with Milp.Solver.cut_rounds = 0 }
  in
  let result, outcome =
    Joinopt.Ext_orders.optimize ~config:(encoding_config precision) ~solver
      ~sorted_tables:sorted query
  in
  match result with
  | Some (order, variants, cost) ->
    Array.iteri
      (fun j v ->
        Format.printf "join %d: %s %s %s@." j
          (if j = 0 then query.Relalg.Query.tables.(order.(0)).Relalg.Catalog.tbl_name
           else "(previous)")
          (Joinopt.Ext_orders.variant_to_string v)
          query.Relalg.Query.tables.(order.(j + 1)).Relalg.Catalog.tbl_name)
      variants;
    Format.printf "exact cost: %.6g  status: %s@." cost
      (match outcome.Milp.Branch_bound.o_status with
      | Milp.Branch_bound.Optimal -> "optimal"
      | _ -> "budget exhausted")
  | None -> Format.printf "no plan found within the budget@."

let orders_cmd =
  let sorted =
    Arg.(value & opt (list int) [] & info [ "sorted" ] ~docv:"T,T,..."
           ~doc:"Indices of tables stored sorted on their join keys.")
  in
  Cmd.v
    (Cmd.info "orders"
       ~doc:"Optimize with interesting orders / sorted base tables (paper Section 5.4)")
    Term.(const run_orders $ query_term $ budget_term $ precision_term $ sorted)

let run_projection query budget precision =
  let solver =
    Milp.Solver.with_time_limit budget
      { Milp.Solver.default_params with Milp.Solver.cut_rounds = 0 }
  in
  match Joinopt.Ext_projection.optimize ~config:(encoding_config precision) ~solver query with
  | Some (plan, cost), outcome ->
    Format.printf "plan: %a@.byte-aware cost: %.6g  status: %s@."
      (Plan.pp_with_query query) plan cost
      (match outcome.Milp.Branch_bound.o_status with
      | Milp.Branch_bound.Optimal -> "optimal"
      | _ -> "budget exhausted")
  | None, _ -> Format.printf "no plan found within the budget@."
  | exception Invalid_argument m -> Format.printf "error: %s@." m

let projection_cmd =
  Cmd.v
    (Cmd.info "projection"
       ~doc:"Optimize with column projection / byte-size costs (paper Section 5.2; tables              need declared columns, e.g. cols= in the query file)")
    Term.(const run_projection $ query_term $ budget_term $ precision_term)

(* ------------------------------------------------------------------ *)
(* export-lp                                                            *)
(* ------------------------------------------------------------------ *)

let run_export query precision cost output =
  let enc =
    Joinopt.Encoding.build
      ~config:{ Joinopt.Encoding.default_config with Joinopt.Encoding.precision }
      query
  in
  let _ = Cost_enc.install enc cost in
  (match output with
  | Some path ->
    Milp.Lp_format.to_file path enc.Joinopt.Encoding.problem;
    Format.printf "wrote %s@." path
  | None -> print_string (Milp.Lp_format.to_string enc.Joinopt.Encoding.problem))

let export_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Output file (stdout when omitted).")
  in
  Cmd.v
    (Cmd.info "export-lp" ~doc:"Write the MILP encoding in CPLEX LP format")
    Term.(const run_export $ query_term $ precision_term $ cost_term $ output)

(* ------------------------------------------------------------------ *)
(* figures and tables                                                   *)
(* ------------------------------------------------------------------ *)

let run_fig1 () = Format.printf "%a@." Experiments.pp_figure1 (Experiments.figure1 ())

let fig1_cmd =
  Cmd.v (Cmd.info "fig1" ~doc:"Reproduce Figure 1 (MILP sizes)") Term.(const run_fig1 $ const ())

let run_fig2 sizes budget cells =
  let config =
    {
      Experiments.default_fig2 with
      Experiments.f2_sizes = sizes;
      f2_budget = budget;
      f2_queries_per_cell = cells;
      f2_sample_times = [ budget /. 4.; budget /. 2.; budget ];
    }
  in
  Format.printf "%a@." Experiments.pp_figure2 (Experiments.figure2 ~config ())

let fig2_cmd =
  let sizes =
    Arg.(value & opt (list int) [ 4; 6; 8; 10; 12 ] & info [ "sizes" ] ~docv:"N,N,..."
           ~doc:"Query sizes (tables per query).")
  in
  let cells =
    Arg.(value & opt int 3 & info [ "cells" ] ~docv:"K" ~doc:"Queries per cell.")
  in
  let budget =
    Arg.(value & opt float 3. & info [ "budget" ] ~docv:"SECONDS" ~doc:"Budget per query.")
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Reproduce Figure 2 (guaranteed factor over time)")
    Term.(const run_fig2 $ sizes $ budget $ cells)

let run_tables () =
  Format.printf "%a@.%a@." Experiments.pp_table1 () Experiments.pp_table2 ()

let tables_cmd =
  Cmd.v (Cmd.info "tables" ~doc:"Print the paper's Tables 1 and 2") Term.(const run_tables $ const ())

(* ------------------------------------------------------------------ *)

let () =
  let doc = "MILP-based join ordering (reproduction of Trummer & Koch, SIGMOD 2017)" in
  let info = Cmd.info "joinopt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            optimize_cmd;
            batch_cmd;
            serve_cmd;
            dp_cmd;
            greedy_cmd;
            ikkbz_cmd;
            anneal_cmd;
            expensive_cmd;
            orders_cmd;
            projection_cmd;
            export_cmd;
            fig1_cmd;
            fig2_cmd;
            tables_cmd;
          ]))
