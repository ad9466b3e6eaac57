(* Solve-lifecycle tests: the unified budget (phase sub-budgets,
   cooperative cancellation, SIGINT), the crash-safe checkpoint envelope,
   and checkpoint/resume determinism — any time limit must yield a
   certified plan, a resumed solve must reproduce the uninterrupted one,
   and damaged checkpoints must degrade to a fresh solve. *)

module Problem = Milp.Problem
module Budget = Milp.Budget
module Checkpoint = Milp.Checkpoint
module Faults = Milp.Faults
module Branch_bound = Milp.Branch_bound
module Solver = Milp.Solver
module Pqueue = Milp.Pqueue
module Query = Relalg.Query
module Plan = Relalg.Plan
module Workload = Relalg.Workload
module Join_graph = Relalg.Join_graph
module Optimizer = Joinopt.Optimizer
module Encoding = Joinopt.Encoding
module Cost_enc = Joinopt.Cost_enc

let query ~seed ~shape ~n = Workload.generate ~seed ~shape ~num_tables:n ()

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "joinopt-lifecycle-%d-%s" (Unix.getpid ()) name)

let chaos = match Sys.getenv_opt "JOINOPT_CHAOS" with Some ("1" | "true") -> true | _ -> false

let shapes = [ ("chain", Join_graph.Chain); ("star", Join_graph.Star); ("cycle", Join_graph.Cycle) ]

let status_name = function
  | Branch_bound.Optimal -> "optimal"
  | Branch_bound.Feasible -> "feasible"
  | Branch_bound.Infeasible -> "infeasible"
  | Branch_bound.Unbounded -> "unbounded"
  | Branch_bound.Unknown -> "unknown"

let stop_name = function
  | Branch_bound.Completed -> "completed"
  | Branch_bound.Time_limit -> "time-limit"
  | Branch_bound.Node_limit -> "node-limit"
  | Branch_bound.Interrupted -> "interrupted"

(* Encode a workload query into its MILP, matching the optimizer's
   default configuration. *)
let encode q =
  let enc = Encoding.build q in
  ignore (Cost_enc.install enc Optimizer.default_config.Optimizer.cost);
  enc.Encoding.problem

let solver_params = { Solver.default_params with Solver.cut_rounds = 0 }

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let budget_basics () =
  let b = Budget.create ~limit:10. () in
  Alcotest.(check bool) "fresh budget not expired" false (Budget.expired b);
  Alcotest.(check bool) "fresh budget not cancelled" false (Budget.cancelled b);
  (match Budget.remaining b with
  | Some r -> if r > 10. then Alcotest.failf "remaining %g exceeds the limit" r
  | None -> Alcotest.fail "limited budget reports no remaining");
  (* Phase views are cumulative fractions of the total. *)
  (match Budget.limit (Budget.phase b Budget.Presolve) with
  | Some l -> Alcotest.(check (float 1e-9)) "presolve sub-budget" 1.5 l
  | None -> Alcotest.fail "phase view lost the limit");
  (match Budget.limit (Budget.phase b Budget.Cuts) with
  | Some l -> Alcotest.(check (float 1e-9)) "cuts sub-budget" 3.0 l
  | None -> Alcotest.fail "phase view lost the limit");
  (match Budget.limit (Budget.phase b Budget.Search) with
  | Some l -> Alcotest.(check (float 1e-9)) "search sub-budget" 10. l
  | None -> Alcotest.fail "phase view lost the limit");
  (* Cancelling a phase view cancels the parent and vice versa. *)
  let ph = Budget.phase b Budget.Cuts in
  Budget.cancel ph;
  Alcotest.(check bool) "cancel propagates to parent" true (Budget.cancelled b);
  Alcotest.(check bool) "parent exhausted after cancel" true (Budget.exhausted b);
  (match Budget.create ~limit:(-1.) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative limit accepted");
  (match Budget.create ~limit:Float.nan () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN limit accepted");
  let u = Budget.create () in
  Alcotest.(check bool) "unlimited budget never expires" false (Budget.expired u);
  (match Budget.remaining u with
  | None -> ()
  | Some _ -> Alcotest.fail "unlimited budget reports remaining")

let budget_expires () =
  let b = Budget.create ~limit:0.005 () in
  Unix.sleepf 0.02;
  Alcotest.(check bool) "expired after the limit" true (Budget.expired b);
  Alcotest.(check bool) "exhausted after the limit" true (Budget.exhausted b);
  (match Budget.remaining b with
  | Some r -> Alcotest.(check (float 0.)) "remaining clamped at zero" 0. r
  | None -> Alcotest.fail "no remaining");
  (* The monotone clock never goes backwards across calls. *)
  let t0 = Budget.now () in
  let t1 = Budget.now () in
  if t1 < t0 then Alcotest.fail "Budget.now went backwards"

let budget_sub () =
  (* A child's limit is clamped to what remains of the parent. *)
  let b = Budget.create ~limit:10. () in
  (match Budget.limit (Budget.sub b ~limit:2. ()) with
  | Some l -> Alcotest.(check (float 1e-9)) "child keeps its smaller limit" 2. l
  | None -> Alcotest.fail "child lost its limit");
  (match Budget.limit (Budget.sub b ~limit:50. ()) with
  | Some l -> if l > 10. then Alcotest.failf "child limit %g exceeds parent remaining" l
  | None -> Alcotest.fail "child lost the parent's limit");
  (* An unlimited parent passes the child limit through; no limits at all
     means an unlimited child. *)
  let u = Budget.create () in
  (match Budget.limit (Budget.sub u ~limit:3. ()) with
  | Some l -> Alcotest.(check (float 1e-9)) "unlimited parent, limited child" 3. l
  | None -> Alcotest.fail "child of unlimited parent lost its limit");
  (match Budget.limit (Budget.sub u ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "child of unlimited parent invented a limit");
  (* The cancellation token is shared both ways. *)
  let child = Budget.sub b () in
  Budget.cancel child;
  Alcotest.(check bool) "child cancel reaches parent" true (Budget.cancelled b);
  let b2 = Budget.create () in
  let child2 = Budget.sub b2 () in
  Budget.cancel b2;
  Alcotest.(check bool) "parent cancel reaches child" true (Budget.cancelled child2);
  (match Budget.sub b ~limit:(-1.) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative child limit accepted");
  (* The child's clock starts at [sub], not at the parent's creation. *)
  let p = Budget.create ~limit:0.05 () in
  Unix.sleepf 0.02;
  let c = Budget.sub p ~limit:0.05 () in
  (* Read the parent first (explicit [let]s — tuple components evaluate
     right-to-left): the clamp makes the two remainings equal at any
     single instant, so reading the child a few microseconds later can
     only shrink it — the reverse order inflates the child by the read
     skew and trips the comparison spuriously. *)
  let rp = Budget.remaining p in
  let rc = Budget.remaining c in
  (match (rp, rc) with
  | Some rp, Some rc ->
    if rc > rp +. 1e-9 then
      Alcotest.failf "child remaining %g exceeds parent remaining %g" rc rp
  | _ -> Alcotest.fail "limited budgets report no remaining")

(* ------------------------------------------------------------------ *)
(* Pqueue raw round-trip                                               *)
(* ------------------------------------------------------------------ *)

(* Byte-identical resume hinges on this: with many duplicate keys (as
   sibling B&B nodes always have), the rebuilt queue must pop the exact
   same value sequence as the original, which naive re-pushing does not
   guarantee. *)
let pqueue_raw_roundtrip () =
  let rng = Random.State.make [| 99 |] in
  let q = Pqueue.create () in
  for i = 0 to 499 do
    Pqueue.push q (float_of_int (Random.State.int rng 8)) i
  done;
  for _ = 1 to 123 do
    ignore (Pqueue.pop q)
  done;
  let q' = Pqueue.of_raw (Pqueue.raw q) in
  Alcotest.(check int) "sizes match" (Pqueue.size q) (Pqueue.size q');
  let rec drain () =
    match (Pqueue.pop q, Pqueue.pop q') with
    | None, None -> ()
    | Some (k, v), Some (k', v') ->
      if k <> k' || v <> v' then
        Alcotest.failf "pop sequences diverge: (%g, %d) vs (%g, %d)" k v k' v';
      drain ()
    | _ -> Alcotest.fail "queues drained at different lengths"
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* Checkpoint envelope                                                 *)
(* ------------------------------------------------------------------ *)

let checkpoint_roundtrip () =
  let path = tmp "roundtrip.ckpt" in
  let value = (42, "state", [| 1.5; -0.25; 1e300 |]) in
  (match Checkpoint.save ~path ~tag:"tag-a" value with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  (match (Checkpoint.load ~path ~tag:"tag-a" : (int * string * float array, string) result) with
  | Ok v -> if v <> value then Alcotest.fail "round-trip changed the value"
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  (match (Checkpoint.load ~path ~tag:"tag-b" : (int * string * float array, string) result) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tag mismatch accepted");
  Sys.remove path;
  (match (Checkpoint.load ~path ~tag:"tag-a" : (int * string * float array, string) result) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded");
  (* Garbage that is not a checkpoint at all. *)
  let oc = open_out_bin path in
  output_string oc "definitely not a checkpoint";
  close_out oc;
  (match (Checkpoint.load ~path ~tag:"tag-a" : (int * string * float array, string) result) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage file loaded");
  Sys.remove path

let checkpoint_detects_damage () =
  List.iter
    (fun (name, plan, counter) ->
      let path = tmp (name ^ ".ckpt") in
      let fired =
        Faults.with_plan plan (fun () ->
            (match Checkpoint.save ~path ~tag:"t" (String.make 4096 'x', 7) with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "%s: save failed: %s" name msg);
            Faults.fired ())
      in
      let n = try List.assoc counter fired with Not_found -> 0 in
      if n = 0 then Alcotest.failf "%s: the %s hook never fired" name counter;
      (match (Checkpoint.load ~path ~tag:"t" : (string * int, string) result) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: damaged checkpoint loaded cleanly" name);
      Sys.remove path)
    [
      ( "corrupt",
        { Faults.none with Faults.f_seed = 21; f_checkpoint_corrupt = 1.0 },
        "checkpoint_corrupt" );
      ( "truncate",
        { Faults.none with Faults.f_seed = 22; f_checkpoint_truncate = 1.0 },
        "checkpoint_truncate" );
    ]

let problem_digest_binds_query () =
  let p1 = encode (query ~seed:1 ~shape:Join_graph.Star ~n:5) in
  let p1' = encode (query ~seed:1 ~shape:Join_graph.Star ~n:5) in
  let p2 = encode (query ~seed:2 ~shape:Join_graph.Star ~n:5) in
  Alcotest.(check string)
    "identical problems digest identically" (Checkpoint.problem_digest p1)
    (Checkpoint.problem_digest p1');
  if Checkpoint.problem_digest p1 = Checkpoint.problem_digest p2 then
    Alcotest.fail "different problems share a digest"

(* ------------------------------------------------------------------ *)
(* Budget-exhaustion grid                                              *)
(* ------------------------------------------------------------------ *)

(* Any time limit — including ones far too small to finish presolve —
   must come back with a validated plan and a *certified* incumbent
   (the greedy MIP start guarantees one exists from the first instant),
   never a crash, an uncertified plan, or a stuck status. *)
let budget_exhaustion_grid () =
  let seeds = if chaos then [ 1; 2; 3; 4; 5; 6 ] else [ 1; 2; 3 ] in
  List.iter
    (fun limit ->
      List.iter
        (fun (shape_name, shape) ->
          List.iter
            (fun seed ->
              let q = query ~seed ~shape ~n:7 in
              let config = Optimizer.default_config |> Optimizer.with_time_limit limit in
              let r = Optimizer.optimize ~config q in
              let where = Printf.sprintf "%s/seed=%d/limit=%.3gs" shape_name seed limit in
              (match r.Optimizer.plan with
              | None -> Alcotest.failf "%s: no plan" where
              | Some p -> (
                match Plan.validate q p with
                | Ok () -> ()
                | Error msg -> Alcotest.failf "%s: invalid plan: %s" where msg));
              (match r.Optimizer.status with
              | Branch_bound.Optimal | Branch_bound.Feasible -> ()
              | st -> Alcotest.failf "%s: status %s" where (status_name st));
              match r.Optimizer.certificate with
              | Solver.Certified _ -> ()
              | Solver.Uncertified msg -> Alcotest.failf "%s: uncertified: %s" where msg
              | Solver.No_incumbent -> Alcotest.failf "%s: no incumbent" where)
            seeds)
        shapes)
    [ 0.02; 0.1; 0.5; 2.0 ]

(* The recovery ladder must never overshoot a sub-second budget by the
   old fixed 0.5 s retry floor. Generous slack for loaded CI machines,
   but far below what even one floored retry would cost. *)
let subsecond_budget_respected () =
  let q = query ~seed:9 ~shape:Join_graph.Star ~n:10 in
  let problem = encode q in
  let t0 = Budget.now () in
  let out = Solver.solve ~params:(Solver.with_time_limit 0.05 solver_params) problem in
  let wall = Budget.now () -. t0 in
  if wall > 0.5 then Alcotest.failf "0.05s budget took %.2fs wall" wall;
  match out.Solver.result.Branch_bound.o_status with
  | Branch_bound.Infeasible | Branch_bound.Unbounded -> Alcotest.fail "nonsense status"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation                                            *)
(* ------------------------------------------------------------------ *)

let cancel_mid_search () =
  let q = query ~seed:3 ~shape:Join_graph.Star ~n:9 in
  let problem = encode q in
  let budget = Budget.create () in
  let reports = ref 0 in
  let on_progress _ =
    incr reports;
    if !reports >= 2 then Budget.cancel budget
  in
  let out = Solver.solve ~params:solver_params ~budget ~on_progress problem in
  let bb = out.Solver.result in
  match bb.Branch_bound.o_stop with
  | Branch_bound.Completed ->
    (* The solve won the race against the cancel request — fine. *)
    ()
  | Branch_bound.Interrupted -> (
    (match bb.Branch_bound.o_status with
    | Branch_bound.Feasible | Branch_bound.Unknown | Branch_bound.Optimal -> ()
    | st -> Alcotest.failf "interrupted solve reported %s" (status_name st));
    match (bb.Branch_bound.o_objective, out.Solver.certificate) with
    | Some _, Solver.Certified _ -> ()
    | Some _, Solver.Uncertified msg ->
      Alcotest.failf "interrupted incumbent uncertified: %s" msg
    | None, _ -> () (* cancelled before any incumbent: allowed at this layer *)
    | _, Solver.No_incumbent -> ())
  | st -> Alcotest.failf "expected interrupted, got %s" (stop_name st)

(* SIGINT delivered mid-solve (the real signal, not a simulated flag)
   must surface as a graceful Feasible/Optimal with a certified plan. *)
let sigint_graceful () =
  let q = query ~seed:4 ~shape:Join_graph.Star ~n:9 in
  let config = Optimizer.default_config in
  let budget = Budget.create () in
  let sent = ref false in
  let on_progress _ =
    if not !sent then begin
      sent := true;
      Unix.kill (Unix.getpid ()) Sys.sigint
    end
  in
  let r =
    Budget.with_sigint budget (fun () ->
        Optimizer.optimize ~config ~budget ~on_progress q)
  in
  Alcotest.(check bool) "signal was sent" true !sent;
  (match r.Optimizer.plan with
  | None -> Alcotest.fail "SIGINT left no plan"
  | Some p -> (
    match Plan.validate q p with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "SIGINT plan invalid: %s" msg));
  (match r.Optimizer.status with
  | Branch_bound.Optimal | Branch_bound.Feasible -> ()
  | st -> Alcotest.failf "SIGINT status %s" (status_name st));
  (match r.Optimizer.certificate with
  | Solver.Certified _ -> ()
  | Solver.Uncertified msg -> Alcotest.failf "SIGINT plan uncertified: %s" msg
  | Solver.No_incumbent -> Alcotest.fail "SIGINT left no incumbent");
  (* The previous SIGINT behavior must be restored after with_sigint. *)
  match Sys.signal Sys.sigint Sys.Signal_default with
  | Sys.Signal_handle _ -> Alcotest.fail "with_sigint leaked its handler"
  | previous -> Sys.set_signal Sys.sigint previous

let faults_can_cancel () =
  let q = query ~seed:6 ~shape:Join_graph.Star ~n:8 in
  let problem = encode q in
  let out, fired =
    Faults.with_plan
      { Faults.none with Faults.f_seed = 61; f_cancel_after_nodes = 2 }
      (fun () ->
        let out = Solver.solve ~params:solver_params problem in
        (out, Faults.fired ()))
  in
  let cancels = try List.assoc "cancel" fired with Not_found -> 0 in
  if cancels > 0 then begin
    Alcotest.(check int) "cancel fires exactly once" 1 cancels;
    match out.Solver.result.Branch_bound.o_stop with
    | Branch_bound.Interrupted -> ()
    | st -> Alcotest.failf "fault cancel produced stop=%s" (stop_name st)
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume determinism                                     *)
(* ------------------------------------------------------------------ *)

(* The differential-oracle shapes: interrupt a jobs=1 solve with the
   deterministic mid-solve-cancel fault, resume from its checkpoint, and
   demand the resumed run reproduce the uninterrupted run exactly —
   status, objective, solution vector and even the total node and
   simplex iteration counts. *)
let resume_reproduces_clean () =
  let cases =
    [
      ("chain", Join_graph.Chain, 6);
      ("star", Join_graph.Star, 7);
      ("cycle", Join_graph.Cycle, 6);
      ("clique", Join_graph.Clique, 6);
    ]
  in
  let seeds = if chaos then [ 1; 2; 3; 4 ] else [ 1; 2 ] in
  let exercised = ref 0 in
  List.iter
    (fun (name, shape, n) ->
      List.iter
        (fun seed ->
          let q = query ~seed ~shape ~n in
          let problem = encode q in
          let clean = Solver.solve ~params:solver_params problem in
          let cb = clean.Solver.result in
          let path = tmp (Printf.sprintf "resume-%s-%d.ckpt" name seed) in
          let cparams =
            Solver.with_checkpoint
              { Checkpoint.ck_path = path; ck_every_nodes = 2 }
              solver_params
          in
          let interrupted =
            Faults.with_plan
              { Faults.none with Faults.f_seed = 31; f_cancel_after_nodes = 3 }
              (fun () -> Solver.solve ~params:cparams problem)
          in
          let where = Printf.sprintf "%s/seed=%d" name seed in
          (match interrupted.Solver.result.Branch_bound.o_stop with
          | Branch_bound.Interrupted ->
            incr exercised;
            let resumed = Solver.solve ~params:cparams ~resume:true problem in
            let rb = resumed.Solver.result in
            if not resumed.Solver.resumed then
              Alcotest.failf "%s: checkpoint did not load" where;
            Alcotest.(check string)
              (where ^ ": status") (status_name cb.Branch_bound.o_status)
              (status_name rb.Branch_bound.o_status);
            (match (cb.Branch_bound.o_objective, rb.Branch_bound.o_objective) with
            | Some a, Some b ->
              if a <> b then Alcotest.failf "%s: objective %.17g vs %.17g" where a b
            | None, None -> ()
            | _ -> Alcotest.failf "%s: incumbent presence differs" where);
            if cb.Branch_bound.o_x <> rb.Branch_bound.o_x then
              Alcotest.failf "%s: solution vectors differ" where;
            Alcotest.(check int)
              (where ^ ": total nodes") cb.Branch_bound.o_nodes rb.Branch_bound.o_nodes;
            (* The resumed search starts with an empty factor table, so its
               first node LPs factorize where the clean run reused the
               parent's factor; the pivots, and so the totals, must not
               notice. *)
            Alcotest.(check int)
              (where ^ ": total simplex iterations") cb.Branch_bound.o_simplex_iters
              rb.Branch_bound.o_simplex_iters;
            (match resumed.Solver.certificate with
            | Solver.Certified _ -> ()
            | Solver.Uncertified msg -> Alcotest.failf "%s: resumed uncertified: %s" where msg
            | Solver.No_incumbent ->
              if cb.Branch_bound.o_objective <> None then
                Alcotest.failf "%s: resumed lost the incumbent" where)
          | _ ->
            (* Solved in fewer nodes than the cancel threshold — nothing
               to resume for this seed. *)
            ());
          if Sys.file_exists path then Sys.remove path)
        seeds)
    cases;
  if !exercised = 0 then
    Alcotest.fail "no case was actually interrupted; the grid is too easy"

(* A *seeded* solve interrupted mid-search must resume with its seed
   provenance intact: the snapshot carries [o_seed] through the
   checkpoint envelope, the resume path skips re-seeding (the candidate
   is deliberately NOT re-passed below), and the resumed run still
   reproduces the uninterrupted warm run exactly. *)
let warm_resume_carries_seed () =
  let cases = [ ("star", Join_graph.Star, 7); ("clique", Join_graph.Clique, 6) ] in
  let seeds = if chaos then [ 1; 2; 3; 4 ] else [ 1; 2 ] in
  let exercised = ref 0 in
  List.iter
    (fun (name, shape, n) ->
      List.iter
        (fun seed ->
          let q = query ~seed ~shape ~n in
          let enc = Encoding.build q in
          ignore (Cost_enc.install enc Optimizer.default_config.Optimizer.cost);
          let problem = enc.Encoding.problem in
          let where = Printf.sprintf "%s/seed=%d" name seed in
          let mip_start =
            match
              Milp.Warm_start.assignment_of_plan problem (Dp_opt.Greedy.order q)
            with
            | Ok ws_x -> { Milp.Warm_start.ws_x; ws_source = "greedy" }
            | Error msg -> Alcotest.failf "%s: warm candidate refused: %s" where msg
          in
          let clean = Solver.solve ~params:solver_params ~mip_start problem in
          let cb = clean.Solver.result in
          (match cb.Branch_bound.o_seed with
          | Some s when s.Milp.Warm_start.sd_source = "greedy" -> ()
          | _ -> Alcotest.failf "%s: clean warm run reports no greedy seed" where);
          let path = tmp (Printf.sprintf "warm-resume-%s-%d.ckpt" name seed) in
          let cparams =
            Solver.with_checkpoint
              { Checkpoint.ck_path = path; ck_every_nodes = 2 }
              solver_params
          in
          let interrupted =
            Faults.with_plan
              { Faults.none with Faults.f_seed = 51; f_cancel_after_nodes = 3 }
              (fun () -> Solver.solve ~params:cparams ~mip_start problem)
          in
          (match interrupted.Solver.result.Branch_bound.o_stop with
          | Branch_bound.Interrupted ->
            incr exercised;
            let resumed = Solver.solve ~params:cparams ~resume:true problem in
            let rb = resumed.Solver.result in
            if not resumed.Solver.resumed then
              Alcotest.failf "%s: checkpoint did not load" where;
            (match rb.Branch_bound.o_seed with
            | Some s when s.Milp.Warm_start.sd_source = "greedy" -> ()
            | Some s ->
              Alcotest.failf "%s: resumed seed source %S, wanted \"greedy\"" where
                s.Milp.Warm_start.sd_source
            | None -> Alcotest.failf "%s: resume dropped the seed provenance" where);
            (match (cb.Branch_bound.o_seed, rb.Branch_bound.o_seed) with
            | Some a, Some b ->
              if a.Milp.Warm_start.sd_objective <> b.Milp.Warm_start.sd_objective then
                Alcotest.failf "%s: seed objective %.17g vs %.17g" where
                  a.Milp.Warm_start.sd_objective b.Milp.Warm_start.sd_objective
            | _ -> ());
            Alcotest.(check string)
              (where ^ ": status") (status_name cb.Branch_bound.o_status)
              (status_name rb.Branch_bound.o_status);
            (match (cb.Branch_bound.o_objective, rb.Branch_bound.o_objective) with
            | Some a, Some b ->
              if a <> b then Alcotest.failf "%s: objective %.17g vs %.17g" where a b
            | None, None -> ()
            | _ -> Alcotest.failf "%s: incumbent presence differs" where);
            if cb.Branch_bound.o_x <> rb.Branch_bound.o_x then
              Alcotest.failf "%s: solution vectors differ" where;
            Alcotest.(check int)
              (where ^ ": total nodes") cb.Branch_bound.o_nodes rb.Branch_bound.o_nodes;
            (match resumed.Solver.certificate with
            | Solver.Certified _ -> ()
            | Solver.Uncertified msg -> Alcotest.failf "%s: resumed uncertified: %s" where msg
            | Solver.No_incumbent -> Alcotest.failf "%s: resumed lost the incumbent" where)
          | _ -> ());
          if Sys.file_exists path then Sys.remove path)
        seeds)
    cases;
  if !exercised = 0 then
    Alcotest.fail "no warm-seeded case was actually interrupted; the grid is too easy"

(* A mangled checkpoint must not poison a resume: the solver logs, falls
   back to a fresh solve, and still produces the clean answer. *)
let damaged_checkpoint_falls_back () =
  List.iter
    (fun (name, plan) ->
      let q = query ~seed:5 ~shape:Join_graph.Star ~n:7 in
      let problem = encode q in
      let clean = Solver.solve ~params:solver_params problem in
      let path = tmp (Printf.sprintf "damaged-%s.ckpt" name) in
      let cparams =
        Solver.with_checkpoint { Checkpoint.ck_path = path; ck_every_nodes = 1 } solver_params
      in
      ignore
        (Faults.with_plan plan (fun () -> Solver.solve ~params:cparams problem)
          : Solver.outcome);
      let resumed = Solver.solve ~params:cparams ~resume:true problem in
      if resumed.Solver.resumed then
        Alcotest.failf "%s: damaged checkpoint was accepted" name;
      (match
         (clean.Solver.result.Branch_bound.o_objective,
          resumed.Solver.result.Branch_bound.o_objective)
       with
      | Some a, Some b ->
        if a <> b then Alcotest.failf "%s: fresh fallback diverged: %.17g vs %.17g" name a b
      | _ -> Alcotest.failf "%s: missing objective" name);
      if Sys.file_exists path then Sys.remove path)
    [
      ( "corrupt",
        {
          Faults.none with
          Faults.f_seed = 41;
          f_cancel_after_nodes = 3;
          f_checkpoint_corrupt = 1.0;
        } );
      ( "truncate",
        {
          Faults.none with
          Faults.f_seed = 42;
          f_cancel_after_nodes = 3;
          f_checkpoint_truncate = 1.0;
        } );
    ]

(* ------------------------------------------------------------------ *)
(* Chaos storm over the whole lifecycle                                *)
(* ------------------------------------------------------------------ *)

(* Everything at once: numeric faults, fake timeouts, mid-solve cancel
   and checkpoint damage, with checkpointing active. The optimizer must
   still return a validated plan with honest provenance, and a follow-up
   resume attempt (faults cleared) must not crash whether or not the
   surviving checkpoint is readable. *)
let lifecycle_storm () =
  let seeds = if chaos then [ 1; 2; 3; 4; 5; 6; 7; 8 ] else [ 1; 2; 3 ] in
  let storm =
    {
      Faults.none with
      Faults.f_seed = 71;
      f_pivot_reject = 0.05;
      f_early_timeout = 0.1;
      f_corrupt_objective = 0.1;
      f_checkpoint_corrupt = 0.5;
      f_checkpoint_truncate = 0.3;
      f_cancel_after_nodes = 5;
    }
  in
  List.iter
    (fun seed ->
      let q = query ~seed ~shape:Join_graph.Star ~n:7 in
      let path = tmp (Printf.sprintf "storm-%d.ckpt" seed) in
      let config =
        Optimizer.default_config
        |> Optimizer.with_time_limit 2.
        |> Optimizer.with_checkpoint { Checkpoint.ck_path = path; ck_every_nodes = 1 }
      in
      let r =
        Faults.with_plan
          { storm with Faults.f_seed = storm.Faults.f_seed + seed }
          (fun () -> Optimizer.optimize ~config q)
      in
      (match r.Optimizer.plan with
      | None -> Alcotest.failf "storm seed %d: no plan" seed
      | Some p -> (
        match Plan.validate q p with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "storm seed %d: invalid plan: %s" seed msg));
      (match (r.Optimizer.provenance, r.Optimizer.certificate) with
      | Some `Milp_certified, (Solver.Uncertified _ | Solver.No_incumbent) ->
        Alcotest.failf "storm seed %d: claims certified without a certificate" seed
      | _ -> ());
      (* Resume with faults cleared: either the checkpoint survived and
         loads, or the fallback solves fresh — both must succeed. *)
      let r2 = Optimizer.optimize ~config ~resume:true q in
      (match r2.Optimizer.plan with
      | None -> Alcotest.failf "storm seed %d: resume produced no plan" seed
      | Some p -> (
        match Plan.validate q p with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "storm seed %d: resume plan invalid: %s" seed msg));
      if Sys.file_exists path then Sys.remove path)
    seeds

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lifecycle"
    [
      ( "budget",
        [
          Alcotest.test_case "phase fractions and cancellation token" `Quick budget_basics;
          Alcotest.test_case "expiry and monotone clock" `Quick budget_expires;
          Alcotest.test_case "sub-budgets clamp and share cancellation" `Quick budget_sub;
          Alcotest.test_case "exhaustion grid certifies at any limit" `Slow
            budget_exhaustion_grid;
          Alcotest.test_case "sub-second budgets are respected" `Slow
            subsecond_budget_respected;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "pqueue raw round-trip is byte-identical" `Quick
            pqueue_raw_roundtrip;
          Alcotest.test_case "envelope round-trip, tags, garbage" `Quick checkpoint_roundtrip;
          Alcotest.test_case "corruption and truncation are detected" `Quick
            checkpoint_detects_damage;
          Alcotest.test_case "problem digest binds snapshot to query" `Quick
            problem_digest_binds_query;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "cancel mid-search returns certified" `Slow cancel_mid_search;
          Alcotest.test_case "SIGINT is graceful" `Slow sigint_graceful;
          Alcotest.test_case "fault-injected cancel fires once" `Slow faults_can_cancel;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resume reproduces the uninterrupted run" `Slow
            resume_reproduces_clean;
          Alcotest.test_case "warm-seeded resume carries seed provenance" `Slow
            warm_resume_carries_seed;
          Alcotest.test_case "damaged checkpoints fall back to fresh" `Slow
            damaged_checkpoint_falls_back;
        ] );
      ("chaos", [ Alcotest.test_case "lifecycle storm" `Slow lifecycle_storm ]);
    ]
