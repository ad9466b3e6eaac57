(* Traced replays of the library pipelines, timed from the benchmark's
   own code around calls into each layer's public functions.

   [replay] re-runs exactly what [Joinopt.Optimizer.optimize] does for a
   monolithic query under [Ws_greedy] or [Ws_portfolio] — encode, seed,
   solve, decode, cost — with one span per step, so it must reproduce
   the untraced objective and node count. The presolve, root LP and
   certification timings are side calls on the same problem: the solver
   repeats that work internally, so they are labelled side calls and
   never counted as children. *)

module O = Joinopt.Optimizer
module Plan = Relalg.Plan
module Cost_model = Relalg.Cost_model
module Budget = Milp.Budget

(* Values measured inside worker domains (portfolio racers) or derived
   per call, kept beside the spans. *)
let notes : (string, Util.sample) Hashtbl.t = Hashtbl.create 32

let note name v =
  let s =
    match Hashtbl.find_opt notes name with
    | Some s -> s
    | None ->
      let s = Util.sample () in
      Hashtbl.replace notes name s;
      s
  in
  Util.push s v

let noted name = match Hashtbl.find_opt notes name with Some s -> Util.values s | None -> [||]

let race_wins : (string, int) Hashtbl.t = Hashtbl.create 4

let win src = Hashtbl.replace race_wins src (1 + Option.value ~default:0 (Hashtbl.find_opt race_wins src))

let wins src = Option.value ~default:0 (Hashtbl.find_opt race_wins src)

(* The benchmark's solver configuration: the library defaults (medium
   precision, hash joins, greedy seed) at one branch & bound domain,
   under a safety time limit that no instance comes near. *)
let safety_limit = 60.

let config policy = O.default_config |> O.with_time_limit safety_limit |> O.with_jobs 1 |> O.with_warm_start_policy policy

let operators_of (config : O.config) =
  match config.O.cost with
  | Joinopt.Cost_enc.Fixed_operator op -> Dp_opt.Selinger.Fixed op
  | Joinopt.Cost_enc.Choose_operator _ -> Dp_opt.Selinger.Best_per_join
  | Joinopt.Cost_enc.Cout -> Dp_opt.Selinger.Fixed Plan.Hash_join

(* The independent reference: Selinger DP's exact optimum, computed in
   set-up, never by the path under test. *)
let reference_cost (config : O.config) q =
  match
    Dp_opt.Selinger.optimize ~metric:(O.exact_metric config.O.cost) ~pm:config.O.pm
      ~operators:(operators_of config) q
  with
  | Dp_opt.Selinger.Complete r -> r.Dp_opt.Selinger.cost
  | Dp_opt.Selinger.Timed_out _ -> failwith "Selinger reference timed out"

type replay = {
  rp_objective : float option;
  rp_nodes : int;
  rp_iters : int;
  rp_wall : float;  (** seconds spent in the replayed pipeline, side calls excluded *)
}

let translate problem (plan : Plan.t) =
  Milp.Warm_start.assignment_of_plan
    ~operators:(Array.map Plan.operator_to_string plan.Plan.operators)
    problem plan.Plan.order

(* The portfolio race as [Optimizer] runs it, with every racer timed on
   its own domain. Racer timings are notes (racers overlap, so they are
   not child spans of [milp.race]). *)
let race ~config ~budget ~req q problem =
  let metric = O.exact_metric config.O.cost and pm = config.O.pm in
  let operators = operators_of config in
  let limit =
    match Budget.remaining budget with
    | Some r -> Float.max 0.05 (Float.min 2.0 (0.1 *. r))
    | None -> 2.0
  in
  let slice = Budget.sub budget ~limit () in
  let names = [| "greedy"; "ikkbz"; "annealing" |] in
  let dp_time = Array.make 3 nan and racer_time = Array.make 3 nan in
  let raw plan = match translate problem plan with Ok x -> Some x | Error _ -> None in
  let timed i f () =
    let t0 = Util.now () in
    let plan, dt = Util.time f in
    dp_time.(i) <- dt;
    let x = Option.bind plan raw in
    racer_time.(i) <- Util.now () -. t0;
    x
  in
  let racers =
    [
      (names.(0), timed 0 (fun () -> Some (fst (Dp_opt.Greedy.plan ~metric ~pm ~operators q))));
      ( names.(1),
        timed 1 (fun () ->
            match Dp_opt.Ikkbz.plan q with Ok (plan, _) -> Some plan | Error _ -> None) );
      ( names.(2),
        timed 2 (fun () ->
            let time_limit = match Budget.remaining slice with Some r -> r | None -> limit in
            Some
              (Dp_opt.Annealing.simulated_annealing ~metric ~pm ~seed:7 ~time_limit q)
                .Dp_opt.Annealing.plan) );
    ]
  in
  let (best, rejected), race_s =
    Util.time (fun () -> Tracer.span ~req "milp.race" (fun () -> Milp.Warm_start.race problem racers))
  in
  note "dp_opt.greedy" dp_time.(0);
  note "dp_opt.ikkbz" dp_time.(1);
  note "dp_opt.annealing" dp_time.(2);
  (* A racer certified when it produced an assignment the race did not
     reject. *)
  let fastest = ref infinity in
  Array.iteri
    (fun i nm ->
      if (not (Float.is_nan racer_time.(i))) && not (List.mem_assoc nm rejected) then
        fastest := Float.min !fastest racer_time.(i))
    names;
  note "milp.race" race_s;
  note "milp.race_idle" (if Float.is_finite !fastest then Float.max 0. (race_s -. !fastest) else race_s);
  match best with
  | Some (cand, _) ->
    win cand.Milp.Warm_start.ws_source;
    Some cand
  | None -> None

let replay ~(config : O.config) ~req q =
  let t0 = Util.now () in
  let budget = Budget.create ?limit:config.O.solver.Milp.Solver.bb.Milp.Branch_bound.time_limit () in
  let enc, cost =
    Tracer.span ~req "core.encode" (fun () ->
        let enc = Joinopt.Encoding.build ~config:config.O.encoding q in
        (enc, Joinopt.Cost_enc.install ~pm:config.O.pm enc config.O.cost))
  in
  let problem = enc.Joinopt.Encoding.problem in
  note "core.vars" (float_of_int (Milp.Problem.num_vars problem));
  note "core.constrs" (float_of_int (Milp.Problem.num_constrs problem));
  let metric = O.exact_metric config.O.cost and pm = config.O.pm in
  let operators = operators_of config in
  let greedy_plan () =
    fst (Tracer.span ~req "dp_opt.greedy" (fun () -> Dp_opt.Greedy.plan ~metric ~pm ~operators q))
  in
  let mip_start =
    match config.O.warm_start with
    | O.Ws_greedy -> (
      let plan = greedy_plan () in
      match Tracer.span ~req "milp.warm_translate" (fun () -> translate problem plan) with
      | Ok ws_x -> Some { Milp.Warm_start.ws_x; ws_source = "greedy" }
      | Error _ -> None)
    | O.Ws_portfolio -> race ~config ~budget ~req q problem
    | O.Ws_off | O.Ws_plan _ -> invalid_arg "Layers.replay: unsupported warm-start policy"
  in
  let outcome =
    Tracer.span ~req "milp.solve" (fun () ->
        Milp.Solver.solve ~params:config.O.solver ~budget ?mip_start problem)
  in
  let bb = outcome.Milp.Solver.result in
  let plan =
    match bb.Milp.Branch_bound.o_x with
    | None -> None
    | Some x ->
      Tracer.span ~req "core.decode" (fun () ->
          let order = Joinopt.Encoding.order_of_assignment enc (fun v -> x.(v)) in
          let plan = Joinopt.Cost_enc.decode_operators cost (fun v -> x.(v)) order in
          match Plan.validate q plan with Ok () -> Some plan | Error _ -> None)
  in
  Option.iter
    (fun p -> ignore (Tracer.span ~req "relalg.plan_cost" (fun () -> Cost_model.plan_cost ~metric ~pm q p)))
    plan;
  let wall = Util.now () -. t0 in
  (* Side calls: the solver's own first steps, timed alone. The race
     translates inside its racers, so a portfolio replay times one
     translation of the greedy plan here. *)
  if (match config.O.warm_start with O.Ws_portfolio -> true | _ -> false) then begin
    let plan = fst (Dp_opt.Greedy.plan ~metric ~pm ~operators q) in
    ignore (Tracer.side ~req "milp.warm_translate" (fun () -> translate problem plan))
  end;
  let reduced =
    Tracer.side ~req "milp.presolve" (fun () ->
        match Milp.Presolve.run problem with
        | Milp.Presolve.Reduced (p, _) -> p
        | Milp.Presolve.Proven_infeasible _ -> problem)
  in
  let root =
    Tracer.side ~req "milp.root_lp" (fun () ->
        let sf = Milp.Stdform.of_problem reduced in
        let lb, ub = Milp.Stdform.bounds sf in
        Milp.Simplex.solve ~params:config.O.solver.Milp.Solver.bb.Milp.Branch_bound.simplex sf ~lb
          ~ub)
  in
  note "milp.root_lp_iters" (float_of_int root.Milp.Simplex.iters);
  Option.iter
    (fun x ->
      ignore (Tracer.side ~req "milp.certify" (fun () -> Milp.Certify.check_point problem (fun v -> x.(v)))))
    bb.Milp.Branch_bound.o_x;
  note "milp.nodes" (float_of_int bb.Milp.Branch_bound.o_nodes);
  note "milp.simplex_iters" (float_of_int bb.Milp.Branch_bound.o_simplex_iters);
  {
    rp_objective = bb.Milp.Branch_bound.o_objective;
    rp_nodes = bb.Milp.Branch_bound.o_nodes;
    rp_iters = bb.Milp.Branch_bound.o_simplex_iters;
    rp_wall = wall;
  }

(* Side calls into the relalg and service layers' pure functions on one
   query, as a request for it would exercise them. *)
let service_calls ~req ~cache q =
  let text = Relalg.Query_file.to_string q in
  let line = Serve.request_line ~id:req q in
  ignore (Tracer.side ~req "service.parse" (fun () -> Service.Protocol.request_of_line line));
  ignore (Tracer.side ~req "relalg.query_parse" (fun () -> Relalg.Query_file.parse text));
  let fp = Tracer.side ~req "service.fingerprint" (fun () -> Service.Fingerprint.of_query q) in
  let key =
    {
      Service.Plan_cache.k_fingerprint = Service.Fingerprint.digest fp;
      k_cost = "hash";
      k_precision = "medium";
    }
  in
  let plan = Relalg.Plan.of_order (Dp_opt.Greedy.order q) in
  let entry =
    {
      Service.Plan_cache.e_plan = Service.Fingerprint.plan_to_canonical fp plan;
      e_objective = Some 1.;
      e_bound = 1.;
      e_true_cost = Some 1.;
      e_provenance = "milp-certified";
      e_precision = "medium";
      e_decomposed = false;
    }
  in
  ignore (Tracer.side ~req "service.cache_lookup" (fun () -> Service.Plan_cache.find cache key));
  Tracer.side ~req "service.cache_insert" (fun () -> Service.Plan_cache.add cache key entry);
  ignore
    (Tracer.side ~req "service.render" (fun () ->
         Service.Protocol.response ~id:(Service.Json.Int req)
           [
             ("status", Service.Json.String "ok");
             ("source", Service.Json.String "cache-hit");
             ("plan", Service.Json.String (Format.asprintf "%a" (Plan.pp_with_query q) plan));
             ("objective", Service.Json.Float 1.);
             ("true_cost", Service.Json.Float 1.);
           ]))

(* One decomposition through [Decompose.optimize], with its own steps
   timed as side calls on the same query. Returns the result and the
   wall time of the [Decompose.optimize] call alone. *)
let decompose ~(config : O.config) ~jobs ~req q =
  let r, wall =
    Util.time (fun () -> Tracer.span ~req "decomp.optimize" (fun () -> Decomp.Decompose.optimize ~config ~jobs q))
  in
  let pt =
    Tracer.side ~req "decomp.partition" (fun () ->
        Decomp.Partition.partition ~max_cluster:config.O.decomp.O.dc_max_cluster q)
  in
  ignore (Tracer.side ~req "decomp.seam" (fun () -> Decomp.Seam.order ~seam:config.O.decomp.O.dc_seam q pt));
  ignore
    (Tracer.side ~req "decomp.wide_cost" (fun () ->
         Decomp.Wide_cost.plan_cost ~metric:(O.exact_metric config.O.cost) ~pm:config.O.pm q
           r.Decomp.Decompose.d_plan));
  (r, wall)
