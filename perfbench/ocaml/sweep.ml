(* The traced run's per-layer metrics, and the short passes that give a
   workload a reading for the layers its own path does not enter.

   Every traced run reports every layer's metrics. A layer off the
   workload's path is measured by a few side calls on the workload's
   own queries (a monolithic replay under the other warm-start policy,
   a forced decomposition, a short exchange with the socket server),
   so each reading is a measurement on this workload's inputs, not a
   placeholder. *)

module O = Joinopt.Optimizer

let decomp_results : Decomp.Decompose.result list ref = ref []
(* One work-pool domain. At two, a neighbour's load on a 2-core host
   stalls every domain at each stop-the-world minor collection: one busy
   core cut decomp_wide's throughput 2.4x, against 10% at one domain. *)
let decomp_jobs = 1

let decompose ~config ~req q =
  let r, wall = Layers.decompose ~config ~jobs:decomp_jobs ~req q in
  decomp_results := r :: !decomp_results;
  (r, wall)

(* Server-side facts of the traced window, and the client's round trips. *)
type serve_facts = { window : Serve.snapshot; round_trips : float array }

let serve_facts : serve_facts option ref = ref None

let server_config ~run_dir ~decomp =
  {
    Service.Server.default_config with
    Service.Server.sv_jobs = 2;
    sv_burst = 0.;
    sv_max_queue = 256;
    sv_default_limit = Layers.safety_limit;
    sv_max_limit = Layers.safety_limit;
    sv_snapshot_path = Some (Filename.concat run_dir "plan-cache.snap");
    sv_snapshot_every = 500;
    sv_decomp = decomp;
  }

(* A short exchange on one connection: each query cold, then re-declared
   (a cache hit), then at low precision (a stale-precision hit). *)
let serve_pass ~run_dir ~decomp ~seed queries =
  let path = Filename.concat run_dir "pass.sock" in
  let server = Serve.start ~config:(server_config ~run_dir ~decomp) ~path in
  let c = Option.get (Serve.connect path) in
  let before = Serve.snapshot (Serve.stats c) in
  let rng = Random.State.make [| seed |] in
  let trips = Util.sample () in
  let id = ref 0 in
  let ask ?precision q =
    incr id;
    let line = Serve.request_line ?precision ~id:!id q in
    let t0 = Util.now () in
    ignore (Serve.call c line);
    let t1 = Util.now () in
    Tracer.record ~req:!id "service.request" t0 t1;
    Util.push trips (t1 -. t0)
  in
  let permuted q = Relalg.Query.permute_tables q ~perm:(Util.shuffle rng (Relalg.Query.num_tables q)) in
  List.iter (fun q -> ask q) queries;
  List.iter (fun q -> ask (permuted q)) queries;
  List.iter (fun q -> ask ~precision:"low" (permuted q)) queries;
  let after = Serve.snapshot (Serve.stats c) in
  Serve.close c;
  Serve.stop server;
  serve_facts := Some { window = Serve.diff before after; round_trips = Util.values trips }

let take k l = List.filteri (fun i _ -> i < k) l

(* The layer passes a workload's own path does not cover. *)
let run ~opts ~replay_policies ~decompose_small ~serve ~mono ~wide =
  let k = if opts.Run.short then 1 else 4 in
  let req = ref 1_000_000 in
  let next () =
    incr req;
    !req
  in
  List.iter
    (fun policy ->
      List.iter (fun q -> ignore (Layers.replay ~config:(Layers.config policy) ~req:(next ()) q)) (take k mono))
    replay_policies;
  let cache = Service.Plan_cache.create ~capacity:64 () in
  List.iter (fun q -> Layers.service_calls ~req:(next ()) ~cache q) (take k (mono @ wide));
  if decompose_small then begin
    let config =
      Layers.config O.Ws_greedy
      |> O.with_decomp { O.default_decomp with O.dc_policy = O.Dc_force; dc_max_cluster = 3 }
    in
    List.iter (fun q -> ignore (decompose ~config ~req:(next ()) q)) (take k mono)
  end;
  if serve then
    serve_pass ~run_dir:opts.Run.run_dir
      ~decomp:{ O.default_decomp with O.dc_policy = O.Dc_auto; dc_max_cluster = 4 }
      ~seed:opts.Run.seed
      (take (max 1 (k / 2)) (if wide = [] then mono else wide))

(* Every per-layer metric of BENCHMARK.json, from the spans, notes and
   facts the traced run collected. *)
let emit ~gc_words_per_query ~gc_major ~overhead m =
  let sm = Tracer.summarize () in
  let span_or_note name =
    if Tracer.count sm name > 0 then Tracer.mean sm name else Util.mean (Layers.noted name)
  in
  let us name = 1e6 *. span_or_note name and ms name = 1e3 *. span_or_note name in
  let noted_mean name = Util.mean (Layers.noted name) in
  Util.set m "core.encode_ms" "ms" (ms "core.encode");
  Util.set m "core.vars" "count" (noted_mean "core.vars");
  Util.set m "core.constrs" "count" (noted_mean "core.constrs");
  Util.set m "core.decode_us" "us" (us "core.decode");
  let solve_s = Tracer.total sm "milp.solve" in
  let nodes = Util.sum (Layers.noted "milp.nodes") and iters = Util.sum (Layers.noted "milp.simplex_iters") in
  Util.set m "milp.solve_ms" "ms" (ms "milp.solve");
  Util.set m "milp.nodes" "count" (noted_mean "milp.nodes");
  Util.set m "milp.simplex_iters" "count" (noted_mean "milp.simplex_iters");
  Util.set m "milp.ms_per_node" "ms" (1e3 *. solve_s /. Float.max 1. nodes);
  Util.set m "milp.us_per_iter" "us" (1e6 *. solve_s /. Float.max 1. iters);
  Util.set m "milp.presolve_ms" "ms" (ms "milp.presolve");
  Util.set m "milp.root_lp_ms" "ms" (ms "milp.root_lp");
  Util.set m "milp.root_lp_iters" "count" (noted_mean "milp.root_lp_iters");
  Util.set m "milp.certify_us" "us" (us "milp.certify");
  Util.set m "milp.warm_translate_us" "us" (us "milp.warm_translate");
  Util.set m "dp_opt.greedy_us" "us" (us "dp_opt.greedy");
  Util.set m "dp_opt.ikkbz_us" "us" (1e6 *. noted_mean "dp_opt.ikkbz");
  Util.set m "dp_opt.annealing_ms" "ms" (1e3 *. noted_mean "dp_opt.annealing");
  let race = Layers.noted "milp.race" in
  Util.set m "milp.race_ms" "ms" (1e3 *. Util.mean race);
  Util.set m "milp.race_idle_frac" "frac" (Util.sum (Layers.noted "milp.race_idle") /. Util.sum race);
  List.iter
    (fun src -> Util.set m ("milp.race_wins." ^ src) "count" (float_of_int (Layers.wins src)))
    [ "greedy"; "ikkbz"; "annealing" ];
  Util.set m "service.parse_us" "us" (us "service.parse");
  Util.set m "relalg.query_parse_us" "us" (us "relalg.query_parse");
  Util.set m "service.fingerprint_us" "us" (us "service.fingerprint");
  Util.set m "service.cache_lookup_us" "us" (us "service.cache_lookup");
  Util.set m "service.cache_insert_us" "us" (us "service.cache_insert");
  Util.set m "service.render_us" "us" (us "service.render");
  (match !serve_facts with
  | None -> ()
  | Some { window = w; round_trips } ->
    let lookups = w.Serve.hits +. w.Serve.misses in
    let request_ms = 1e3 *. Serve.per_count w.Serve.req_total w.Serve.req_count in
    Util.set m "service.cache_hit_rate" "frac" (w.Serve.hits /. lookups);
    Util.set m "service.stale_hits" "count" w.Serve.stale;
    Util.set m "service.evictions" "count" w.Serve.evictions;
    Util.set m "service.server_request_ms" "ms" request_ms;
    Util.set m "service.server_solve_ms" "ms" (1e3 *. Serve.per_count w.Serve.solve_total w.Serve.solve_count);
    Util.set m "service.transport_wait_ms" "ms" ((1e3 *. Util.mean round_trips) -. request_ms);
    Util.set m "service.queue_high_water" "count" w.Serve.queue_hwm);
  Util.set m "decomp.partition_ms" "ms" (ms "decomp.partition");
  Util.set m "decomp.seam_ms" "ms" (ms "decomp.seam");
  Util.set m "decomp.wide_cost_us" "us" (us "decomp.wide_cost");
  Run.decomp_metrics ~jobs:decomp_jobs !decomp_results m;
  Util.set m "gc.minor_mwords_per_query" "Mwords" gc_words_per_query;
  Util.set m "gc.major_collections" "count" (float_of_int gc_major);
  Util.set m "trace.overhead_frac" "frac" overhead
