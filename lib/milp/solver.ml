type params = {
  bb : Branch_bound.params;
  presolve : bool;
  cut_rounds : int;
  max_recovery_rungs : int;
  checkpoint : Checkpoint.config option;
  lint : Lint.level;
}

let default_params =
  {
    bb = Branch_bound.default_params;
    presolve = true;
    cut_rounds = 3;
    max_recovery_rungs = 3;
    checkpoint = None;
    lint = Lint.Off;
  }

(* Gomory cuts added per root round, at most. *)
let cuts_per_round = 16

let with_time_limit t params = { params with bb = { params.bb with Branch_bound.time_limit = Some t } }

let with_jobs n params = { params with bb = { params.bb with Branch_bound.jobs = max 1 n } }

let with_checkpoint cfg params = { params with checkpoint = Some cfg }

let with_lint level params = { params with lint = level }

type certificate =
  | Certified of Certify.report
  | Uncertified of string
  | No_incumbent

type outcome = {
  result : Branch_bound.outcome;
  certificate : certificate;
  rungs : int;
  resumed : bool;
  lint_report : Lint.report option;
}

let infeasible_result () =
  {
    Branch_bound.o_status = Branch_bound.Infeasible;
    o_objective = None;
    o_x = None;
    o_bound = infinity;
    o_nodes = 0;
    o_simplex_iters = 0;
    o_trace = [];
    o_bound_is_proven = true;
    o_rejected_incumbents = 0;
    o_stop = Branch_bound.Completed;
    o_seed = None;
  }

(* The tag binds a checkpoint both to the caller's problem and to the
   snapshot schema, so a stale file from another query — or another
   version of this code — is rejected at load, not unmarshalled. v2:
   Problem.t grew a metadata field, changing the Marshal layout of the
   persisted reduced problem. v3: the snapshot carries the seeded
   incumbent's provenance. v4: nodes carry their parent's sequence
   number. v5: nodes drop their depth, and the snapshot its bound-keyed
   mirror heap and closed set. *)
let checkpoint_tag problem = "bb-snapshot-v5:" ^ Checkpoint.problem_digest problem

(* The persisted value is the pair (reduced problem, snapshot): presolve
   and cuts under a deadline are not reproducible run-to-run, so resume
   must restart from the exact formulation the frontier refers to. *)
let checkpoint_arg params ~tag reduced =
  match params.checkpoint with
  | None -> None
  | Some cfg ->
    Some
      ( cfg.Checkpoint.ck_every_nodes,
        fun sn ->
          match Checkpoint.save ~path:cfg.Checkpoint.ck_path ~tag (reduced, sn) with
          | Ok () -> ()
          | Error msg -> Logs.warn (fun m -> m "checkpoint save failed: %s" msg) )

(* One pass of the presolve -> root cuts -> branch & bound pipeline.
   Every candidate incumbent inside branch & bound is certified against
   the *original* [problem], not the transformed one. The phase
   sub-budgets carve the caller's single budget: presolve must yield by
   15% of it, the cut loop by 30%, and branch & bound (which re-checks
   the full budget) absorbs whatever preprocessing actually spent —
   there is no per-phase clock arithmetic anywhere. *)
let solve_once ~params ~budget ~tag ?mip_start ?on_progress ?resume problem =
  match resume with
  | Some (reduced, sn) ->
    Branch_bound.solve ~params:params.bb ~budget
      ?checkpoint:(checkpoint_arg params ~tag reduced)
      ~certify_against:problem ?on_progress ~resume:sn reduced
  | None -> (
    let reduced =
      if params.presolve then begin
        match Presolve.run ~budget:(Budget.phase budget Budget.Presolve) problem with
        | Presolve.Reduced (q, stats) ->
          Logs.debug (fun m -> m "%a" Presolve.pp_stats stats);
          Some q
        | Presolve.Proven_infeasible msg ->
          Logs.debug (fun m -> m "presolve: infeasible (%s)" msg);
          None
      end
      else Some problem
    in
    match reduced with
    | None -> infeasible_result ()
    | Some q ->
      let q =
        if params.cut_rounds > 0 then begin
          let simplex_params =
            {
              params.bb.Branch_bound.simplex with
              Simplex.budget = Some (Budget.phase budget Budget.Cuts);
            }
          in
          let q', stats =
            Cuts.gomory_strengthen ~max_rounds:params.cut_rounds
              ~max_per_round:cuts_per_round ~simplex_params q
          in
          Logs.debug (fun m ->
              m "cuts: %d GMI cuts in %d rounds" stats.Cuts.cuts_added stats.Cuts.rounds_run);
          q'
        end
        else q
      in
      Branch_bound.solve ~params:params.bb ~budget
        ?checkpoint:(checkpoint_arg params ~tag q)
        ~certify_against:problem ?mip_start ?on_progress q)

(* Independent audit of a finished outcome against the original problem:
   the returned point, the recomputed objective, the progress trace's
   anytime invariants, and the proven dual bound. *)
let certify_outcome problem (out : Branch_bound.outcome) =
  let minimize =
    match Problem.objective problem with
    | Problem.Minimize, _ -> true
    | Problem.Maximize, _ -> false
  in
  match (out.Branch_bound.o_x, out.Branch_bound.o_objective) with
  | None, _ | _, None -> No_incumbent
  | Some x, Some obj ->
    if not (Float.is_finite obj) then Uncertified "reported objective is not finite"
    else begin
      match
        Certify.check_point ~tol:(10. *. Simplex.feas_tol) ~int_tol:(10. *. Branch_bound.int_tol)
          problem (fun v -> x.(v))
      with
      | Certify.Rejected msg -> Uncertified msg
      | Certify.Certified r ->
        if abs_float (r.Certify.r_objective -. obj) > 1e-6 *. (1. +. abs_float obj) then
          Uncertified
            (Printf.sprintf "objective mismatch: reported %g, recomputed %g" obj
               r.Certify.r_objective)
        else begin
          let trace =
            List.map
              (fun pr -> (pr.Branch_bound.pr_incumbent, pr.Branch_bound.pr_bound))
              out.Branch_bound.o_trace
          in
          match Certify.check_trace ~minimize trace with
          | Error msg -> Uncertified msg
          | Ok () ->
            if not out.Branch_bound.o_bound_is_proven then
              Uncertified "dual bound unproven (a node LP was dropped)"
            else (
              match
                Certify.check_bound ~minimize ~objective:r.Certify.r_objective
                  out.Branch_bound.o_bound
              with
              | Error msg -> Uncertified msg
              | Ok () -> Certified r)
        end
    end

(* Numeric-failure recovery ladder — the moral equivalent of a commercial
   solver's "numeric focus" escalation. Rung 0 is the caller's own
   configuration; each higher rung trades speed for robustness:
   rung 1 drops cuts and pivots more conservatively,
   rung 2 adds Bland pricing, frequent refactorization and no presolve,
   rung 3 switches to the dense reference factorization. *)
let escalate params rung =
  if rung = 0 then params
  else begin
    let sx = params.bb.Branch_bound.simplex in
    let sx =
      {
        sx with
        Simplex.pivot_tol = sx.Simplex.pivot_tol *. 100.;
        refactor_every = max 10 (sx.Simplex.refactor_every / 2);
      }
    in
    let sx =
      if rung >= 2 then { sx with Simplex.force_bland = true; refactor_every = 10 } else sx
    in
    let sx =
      if rung >= 3 then
        { sx with Simplex.backend = Simplex.Dense_backend; pivot_tol = sx.Simplex.pivot_tol *. 10. }
      else sx
    in
    {
      params with
      cut_rounds = 0;
      presolve = params.presolve && rung < 2;
      bb = { params.bb with Branch_bound.simplex = sx };
    }
  end

(* Retry only on failures escalation can plausibly fix. Proven
   infeasibility / unboundedness is trusted: if faults forged it, the
   caller's fallback path takes over. *)
let needs_retry ~time_left (out : Branch_bound.outcome) cert =
  match out.Branch_bound.o_status with
  | Branch_bound.Infeasible | Branch_bound.Unbounded -> false
  | Branch_bound.Unknown -> time_left
  | Branch_bound.Optimal | Branch_bound.Feasible -> (
    match cert with Uncertified _ -> time_left | Certified _ | No_incumbent -> false)

let solve ?(params = default_params) ?budget ?(resume = false) ?mip_start ?on_progress problem
    =
  let budget =
    match budget with
    | Some b -> b
    | None -> Budget.create ?limit:params.bb.Branch_bound.time_limit ()
  in
  let tag = checkpoint_tag problem in
  (* Static formulation audit, on the problem exactly as the caller
     built it (before presolve or cuts reshape it). The report rides on
     the outcome; failure policy is the caller's call via Lint.failed. *)
  let lint_report =
    match params.lint with
    | Lint.Off -> None
    | Lint.Standard | Lint.Strict ->
      let report = Lint.analyze problem in
      List.iter
        (fun d ->
          let log =
            match d.Lint.d_severity with
            | Lint.Error -> Logs.err
            | Lint.Warn -> Logs.warn
            | Lint.Info -> Logs.debug
          in
          log (fun m -> m "lint: %a" Lint.pp_diagnostic d))
        report.Lint.diagnostics;
      Some report
  in
  (* A corrupted, truncated, missing or mismatched checkpoint degrades
     to a fresh solve — resume is an optimization, never a correctness
     dependency. *)
  let resume_state =
    if not resume then None
    else
      match params.checkpoint with
      | None ->
        Logs.warn (fun m -> m "resume requested but no checkpoint configured; solving fresh");
        None
      | Some cfg -> (
        match Checkpoint.load ~path:cfg.Checkpoint.ck_path ~tag with
        | Ok state ->
          Logs.info (fun m -> m "resuming from checkpoint %s" cfg.Checkpoint.ck_path);
          Some state
        | Error msg ->
          Logs.warn (fun m ->
              m "cannot resume from %s (%s); solving fresh" cfg.Checkpoint.ck_path msg);
          None)
  in
  let minimize =
    match Problem.objective problem with
    | Problem.Minimize, _ -> true
    | Problem.Maximize, _ -> false
  in
  let rank cert (out : Branch_bound.outcome) =
    match (cert, out.Branch_bound.o_x) with
    | Certified _, _ -> 2
    | Uncertified _, Some _ -> 1
    | _, _ -> 0
  in
  let better (o, c) (o', c') =
    let r = rank c o and r' = rank c' o' in
    if r <> r' then r > r'
    else
      match (o.Branch_bound.o_objective, o'.Branch_bound.o_objective) with
      | Some a, Some b -> if minimize then a < b else a > b
      | Some _, None -> true
      | None, _ -> false
  in
  (* Recovery retries share the one budget: a retry gets exactly what is
     left, never a manufactured floor that could overshoot a sub-second
     limit severalfold. [resume_state] applies to the first attempt
     only — a rung-0 failure means the checkpointed trajectory itself is
     suspect, so escalated retries restart from scratch. *)
  let time_left () =
    (not (Budget.cancelled budget))
    && match Budget.remaining budget with Some r -> r > 0.01 | None -> true
  in
  let rec attempt rung best resume_state =
    let p = escalate params rung in
    let result = solve_once ~params:p ~budget ~tag ?mip_start ?on_progress ?resume:resume_state problem in
    let cert = certify_outcome problem result in
    let best =
      match best with
      | None -> (result, cert, rung)
      | Some b ->
        let o', c', _ = b in
        if better (result, cert) (o', c') then (result, cert, rung) else b
    in
    if rung >= params.max_recovery_rungs || not (needs_retry ~time_left:(time_left ()) result cert)
    then best
    else begin
      Logs.info (fun m ->
          m "solver: retrying on recovery rung %d (status %s, %s)" (rung + 1)
            (match result.Branch_bound.o_status with
            | Branch_bound.Optimal -> "optimal"
            | Branch_bound.Feasible -> "feasible"
            | Branch_bound.Infeasible -> "infeasible"
            | Branch_bound.Unbounded -> "unbounded"
            | Branch_bound.Unknown -> "unknown")
            (match cert with
            | Certified _ -> "certified"
            | Uncertified msg -> "uncertified: " ^ msg
            | No_incumbent -> "no incumbent"));
      attempt (rung + 1) (Some best) None
    end
  in
  let result, certificate, rungs = attempt 0 None resume_state in
  { result; certificate; rungs; resumed = Option.is_some resume_state; lint_report }
