type params = {
  time_limit : float option;
  node_limit : int option;
  simplex : Simplex.params;
  jobs : int;
}

let default_params =
  { time_limit = None; node_limit = None; simplex = Simplex.default_params; jobs = 1 }

let gap_tol = 1e-6

let int_tol = 1e-5

(* The diving heuristic runs from every [dive_period]-th node and fixes
   at most [max_dive_depth] variables. *)
let dive_period = 64

let max_dive_depth = 50

type progress = {
  pr_elapsed : float;
  pr_nodes : int;
  pr_incumbent : float option;
  pr_bound : float;
  pr_gap : float option;
}

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type stop_reason = Completed | Time_limit | Node_limit | Interrupted

type outcome = {
  o_status : status;
  o_objective : float option;
  o_x : float array option;
  o_bound : float;
  o_nodes : int;
  o_simplex_iters : int;
  o_trace : progress list;
  o_bound_is_proven : bool;
  o_rejected_incumbents : int;
  o_stop : stop_reason;
  o_seed : Warm_start.seed option;
}

let gap ~incumbent ~bound =
  if incumbent = bound then 0.
  else abs_float (incumbent -. bound) /. max (abs_float incumbent) 1e-10

(* A node stores its bound-override chain relative to the root arrays.
   Chains stay short (one entry per branching decision on the path). *)
type node = {
  n_id : int;
  n_bound : float;  (* parent LP objective: a valid lower bound (min sense) *)
  n_fixes : (int * [ `Lb | `Ub ] * float) list;
  n_warm : (int array * Simplex.vstat array) option;
  n_parent : int;  (* the parent's [n_id], which keys its LP's factor; -1 at the root *)
}

(* Everything needed to continue the search in a fresh process. The heap
   array is the queue's *internal storage order* (Pqueue.raw), not a
   sorted frontier: sibling nodes share their parent's LP bound as key,
   so pop order among equals depends on heap layout — replaying it
   byte-identically requires restoring that layout, not re-pushing.
   All fields are plain data (no closures, no custom blocks), so the
   snapshot is [Marshal]-safe by construction. *)
type snapshot = {
  sn_heap : (float * node) array;
  sn_next_node_id : int;
  sn_incumbent : (float * float array) option;
  sn_root_done : bool;
  sn_bound_is_proven : bool;
  sn_nodes : int;
  sn_simplex_iters : int;
  sn_rejected_incumbents : int;
  sn_seed : Warm_start.seed option;
}

type search = {
  sf : Stdform.t;
  problem : Problem.t;
  (* The problem incumbents are certified against: the caller's original,
     pre-presolve / pre-cuts formulation when the solver facade supplies
     it, so no transformation bug can certify its own output. *)
  certify : Problem.t;
  p : params;
  root_lb : float array;
  root_ub : float array;
  heap : node Pqueue.t;  (* open nodes keyed by their LP bound *)
  mutable next_node_id : int;
  budget : Budget.t;
  ckpt : (int * (snapshot -> unit)) option;  (* cadence in nodes, sink *)
  mutable last_ckpt : int;  (* node count at the last snapshot *)
  mutable stop_hint : stop_reason option;  (* why the loop gave up early *)
  on_progress : progress -> unit;
  mutable incumbent : (float * float array) option;  (* internal min sense, full x *)
  (* Provenance of the seeded initial incumbent, if one survived
     certification: carried through snapshots so a resumed solve reports
     the same seed as the uninterrupted one. *)
  mutable seed : Warm_start.seed option;
  (* The incumbent objective, republished for worker domains: the only
     piece of search state the speculative LP pool reads. Monotone
     non-increasing, so a stale read only costs a wasted LP, never a
     wrong pruning decision. *)
  inc_published : float Atomic.t;
  (* Factors of recently solved node LPs, for their children's warm
     solves (see [node_lp]). *)
  factors : (int * Simplex.factor) option Atomic.t array;
  mutable root_done : bool;  (* the root LP bound has been established *)
  mutable in_flight : float option;  (* bound of the node being processed *)
  mutable nodes : int;
  mutable simplex_iters : int;
  mutable rejected_incumbents : int;
  mutable bound_is_proven : bool;
  mutable trace : progress list;
  mutable last_reported : (float option * float) option;
}

let elapsed s = Budget.elapsed s.budget

(* The proven global bound: the minimum over open node bounds (including
   the node currently being processed), the incumbent when the tree is
   exhausted, or -inf before the root relaxation has been solved. Nodes
   are popped best-bound first, so the heap minimum is the open bound. *)
let global_bound s =
  let open_bound =
    match (Pqueue.min_key s.heap, s.in_flight) with
    | Some b, Some f -> Some (min b f)
    | (Some _ as b), None -> b
    | None, (Some _ as f) -> f
    | None, None -> None
  in
  match (open_bound, s.incumbent) with
  | Some b, Some (inc, _) -> min b inc
  | Some b, None -> b
  | None, _ when not s.root_done -> neg_infinity
  | None, Some (inc, _) -> inc
  | None, None -> infinity

let incumbent_value s = match s.incumbent with Some (v, _) -> Some v | None -> None

let current_progress s =
  let bound = global_bound s in
  let inc = incumbent_value s in
  let g = match inc with Some v -> Some (gap ~incumbent:v ~bound) | None -> None in
  {
    pr_elapsed = elapsed s;
    pr_nodes = s.nodes;
    pr_incumbent = Option.map (Stdform.user_objective s.sf) inc;
    pr_bound = Stdform.user_objective s.sf bound;
    pr_gap = g;
  }

let report ?(force = false) s =
  let key = (incumbent_value s, global_bound s) in
  let changed =
    match s.last_reported with
    | None -> true
    | Some (inc, bound) ->
      let inc', bound' = key in
      inc <> inc' || abs_float (bound -. bound') > 1e-12
  in
  if changed || force then begin
    s.last_reported <- Some key;
    let pr = current_progress s in
    s.trace <- pr :: s.trace;
    s.on_progress pr
  end

let materialize_bounds s fixes =
  let lb = Array.copy s.root_lb and ub = Array.copy s.root_ub in
  List.iter
    (fun (v, side, value) ->
      match side with
      | `Lb -> lb.(v) <- max lb.(v) value
      | `Ub -> ub.(v) <- min ub.(v) value)
    fixes;
  (lb, ub)

let fractionality x = abs_float (x -. Float.round x)

(* Most fractional variable among the highest-priority fractional ones.
   A variable whose node bounds already pin it to a single integer is not
   branchable: its residual fractionality is solver noise, and branching
   on it would recreate the same subproblem forever. *)
let branch_variable s ~lb ~ub x =
  let best = ref None in
  for j = 0 to s.sf.Stdform.nstruct - 1 do
    if s.sf.Stdform.integer.(j) && ub.(j) -. lb.(j) >= 0.5 then begin
      let f = fractionality x.(j) in
      if f > int_tol && floor x.(j) >= lb.(j) -. int_tol && ceil x.(j) <= ub.(j) +. int_tol
      then begin
        let prio = (Problem.var_info s.problem j).Problem.v_priority in
        match !best with
        | None -> best := Some (j, prio, f)
        | Some (_, bp, bf) ->
          if prio > bp || (prio = bp && f > bf) then best := Some (j, prio, f)
      end
    end
  done;
  Option.map (fun (j, _, _) -> j) !best

(* Accept an integral LP point as incumbent only when the independent
   checker certifies it against [s.certify]: snap the integer components
   first; if snapping broke a constraint, retry the raw LP point (feasible
   to LP tolerance) under a loosened integrality tolerance. A point that
   fails both checks is rejected — never installed — and counted. *)
let try_incumbent s (x : float array) _lp_obj =
  let snapped = Array.copy x in
  for j = 0 to s.sf.Stdform.nstruct - 1 do
    if s.sf.Stdform.integer.(j) then snapped.(j) <- Float.round snapped.(j)
  done;
  let tol = 10. *. Simplex.feas_tol in
  let certify ~int_tol point =
    match Certify.check_point ~tol ~int_tol s.certify (fun v -> point.(v)) with
    | Certify.Certified r -> Some (Stdform.internal_of_user s.sf r.Certify.r_objective, point)
    | Certify.Rejected _ -> None
  in
  let candidate =
    match certify ~int_tol snapped with
    | Some _ as c -> c
    | None -> (
      match certify ~int_tol:(10. *. int_tol) (Array.copy x) with
      | Some _ as c -> c
      | None ->
        s.rejected_incumbents <- s.rejected_incumbents + 1;
        Logs.debug (fun m -> m "incumbent rejected by certification (node %d)" s.nodes);
        None)
  in
  match candidate with
  | Some (obj, x') ->
    let improves = match s.incumbent with None -> true | Some (best, _) -> obj < best -. 1e-12 in
    if improves then begin
      s.incumbent <- Some (obj, x');
      Atomic.set s.inc_published obj;
      report s
    end;
    improves
  | None -> false

let node_simplex_params s =
  (* Every node LP carries the search budget — including LPs running
     speculatively on worker domains — so one long solve cannot blow
     through the time limit and a cancellation request reaches workers
     mid-pivot, not just between nodes. *)
  { s.p.simplex with Simplex.budget = Some s.budget }

let solve_node s ~warm ?factor ~lb ~ub () =
  let res = Simplex.solve ~params:(node_simplex_params s) ?warm ?factor s.sf ~lb ~ub in
  s.simplex_iters <- s.simplex_iters + res.Simplex.iters;
  res

(* Factor hand-off. An optimal node LP ends on a fresh factorization of
   its final basis, which is exactly the warm basis of both children.
   The last few such factors sit in a fixed table of [factor_slots]
   slots, indexed by the solving node's [n_id] modulo the table size and
   checked against the full key, so memory stays constant however large
   the frontier grows; a child whose parent's slot was overwritten in
   the meantime simply factorizes again. Slots are [Atomic]: a factor
   published by one domain is read whole by another, and factors are
   immutable. Since a factor is a pure function of the basis, a hit or a
   miss gives the same pivots, so the table's contents (which depend on
   speculation timing under [jobs > 1]) never change a result. The table
   is not part of a snapshot: a resumed search starts with it empty. *)
let factor_slots = 32

let handed_factor s parent =
  if parent < 0 then None
  else
    match Atomic.get s.factors.(parent land (factor_slots - 1)) with
    | Some (key, f) when key = parent -> Some f
    | _ -> None

let publish_factor s id (res : Simplex.result) =
  match res.Simplex.factor with
  | Some f -> Atomic.set s.factors.(id land (factor_slots - 1)) (Some (id, f))
  | None -> ()

(* The full per-node LP work — bound materialization, the warm solve and
   the cold retry after a numeric failure — as a pure function of the
   node. It reads only state that is immutable once the search starts
   ([sf], [p], root bounds, [started]) plus the factor table, which only
   saves work, so worker domains can run it speculatively; the iteration
   count is returned rather than accumulated so accounting happens
   exactly once, at consumption, in deterministic (serial) order. *)
let node_lp s node =
  let lb, ub = materialize_bounds s node.n_fixes in
  let params = node_simplex_params s in
  let factor = handed_factor s node.n_parent in
  let res = Simplex.solve ~params ?warm:node.n_warm ?factor s.sf ~lb ~ub in
  let res, iters =
    match res.Simplex.status with
    | Simplex.Numerical_failure | Simplex.Iteration_limit ->
      let cold = Simplex.solve ~params s.sf ~lb ~ub in
      (cold, res.Simplex.iters + cold.Simplex.iters)
    | _ -> (res, res.Simplex.iters)
  in
  publish_factor s node.n_id res;
  (lb, ub, res, iters)

let is_integral s x =
  let ok = ref true in
  for j = 0 to s.sf.Stdform.nstruct - 1 do
    if s.sf.Stdform.integer.(j) && fractionality x.(j) > int_tol then ok := false
  done;
  !ok

(* Diving heuristic: from a fractional LP point, repeatedly fix the
   *least* fractional integer variable to its nearest integer and
   re-solve; stops on infeasibility, depth, or an integral point. *)
let dive s node res0 =
  let rec go fixes res depth =
    if depth > max_dive_depth then ()
    else if is_integral s res.Simplex.x then ignore (try_incumbent s res.Simplex.x res.Simplex.objective)
    else begin
      (* Find least fractional (but still fractional) integer var. *)
      let best = ref None in
      for j = 0 to s.sf.Stdform.nstruct - 1 do
        if s.sf.Stdform.integer.(j) then begin
          let f = fractionality res.Simplex.x.(j) in
          if f > int_tol then
            match !best with
            | None -> best := Some (j, f)
            | Some (_, bf) -> if f < bf then best := Some (j, f)
        end
      done;
      match !best with
      | None -> ()
      | Some (j, _) ->
        let target = Float.round res.Simplex.x.(j) in
        let fixes = (j, `Lb, target) :: (j, `Ub, target) :: fixes in
        let lb, ub = materialize_bounds s fixes in
        if lb.(j) > ub.(j) then ()
        else begin
          let res' =
            solve_node s
              ~warm:(Some (res.Simplex.basis, res.Simplex.vstatus))
              ?factor:res.Simplex.factor ~lb ~ub ()
          in
          match res'.Simplex.status with
          | Simplex.Optimal ->
            (* Abandon the dive once it can no longer beat the incumbent. *)
            let pruned =
              match s.incumbent with
              | Some (best_obj, _) -> res'.Simplex.objective >= best_obj -. 1e-12
              | None -> false
            in
            if not pruned then go fixes res' (depth + 1)
          | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit
          | Simplex.Numerical_failure ->
            ()
        end
    end
  in
  go node.n_fixes res0 0

let node_limit_hit s = match s.p.node_limit with Some n -> s.nodes >= n | None -> false

let out_of_budget s = Budget.exhausted s.budget || node_limit_hit s

(* Why the search is stopping, recorded the moment [out_of_budget]
   trips so [finish] need not re-poll the (fault-injectable) budget. *)
let classify_stop s =
  if Budget.cancelled s.budget then Interrupted
  else if node_limit_hit s then Node_limit
  else Time_limit

let take_snapshot s =
  {
    sn_heap = Pqueue.raw s.heap;
    sn_next_node_id = s.next_node_id;
    sn_incumbent = s.incumbent;
    sn_root_done = s.root_done;
    sn_bound_is_proven = s.bound_is_proven;
    sn_nodes = s.nodes;
    sn_simplex_iters = s.simplex_iters;
    sn_rejected_incumbents = s.rejected_incumbents;
    sn_seed = s.seed;
  }

(* A checkpoint sink failure (disk full, permissions) must never take
   down the solve it exists to protect. *)
let emit_checkpoint s sink =
  s.last_ckpt <- s.nodes;
  try sink (take_snapshot s)
  with e ->
    Logs.warn (fun m -> m "checkpoint write failed: %s" (Printexc.to_string e))

let maybe_checkpoint s =
  match s.ckpt with
  | Some (every, sink) when s.root_done && s.nodes - s.last_ckpt >= every ->
    emit_checkpoint s sink
  | _ -> ()

let gap_closed s =
  match s.incumbent with
  | None -> false
  | Some (inc, _) -> gap ~incumbent:inc ~bound:(global_bound s) <= gap_tol

let finish s status_when_done =
  report ~force:true s;
  (* "Tree exhausted" only certifies optimality when the root bound was
     actually established and no node LP was dropped on a failure. *)
  let exhausted = Pqueue.is_empty s.heap && s.root_done && s.bound_is_proven in
  let status =
    match (status_when_done, s.incumbent) with
    | (Infeasible | Unbounded), _ -> status_when_done
    | _, Some _ -> if gap_closed s || exhausted then Optimal else Feasible
    | _, None -> if exhausted then Infeasible else Unknown
  in
  let objective, x =
    match s.incumbent with
    | Some (obj, x) ->
      (Some (Stdform.user_objective s.sf obj), Some (Array.sub x 0 s.sf.Stdform.nstruct))
    | None -> (None, None)
  in
  let stop =
    match status with
    | Optimal | Infeasible | Unbounded -> Completed
    | Feasible | Unknown -> ( match s.stop_hint with Some r -> r | None -> Completed)
  in
  (* A final snapshot on any early stop, so an interrupted solve can be
     continued even if the periodic cadence never fired. *)
  (match (stop, s.ckpt) with
  | (Time_limit | Node_limit | Interrupted), Some (_, sink) when s.root_done ->
    emit_checkpoint s sink
  | _ -> ());
  {
    o_status = status;
    o_objective = objective;
    o_x = x;
    o_bound = Stdform.user_objective s.sf (global_bound s);
    o_nodes = s.nodes;
    o_simplex_iters = s.simplex_iters;
    o_trace = List.rev s.trace;
    o_bound_is_proven = s.bound_is_proven;
    o_rejected_incumbents = s.rejected_incumbents;
    o_stop = stop;
    o_seed = s.seed;
  }

(* Put a node whose LP was cut short by the budget back on the frontier:
   the open set (and hence the proven dual bound and any checkpoint
   taken from it) stays complete, and the node is simply re-processed on
   resume. The node count is rolled back so a resumed run's total
   matches an uninterrupted one. *)
let requeue s node =
  s.nodes <- s.nodes - 1;
  Pqueue.push s.heap node.n_bound node

(* Process one popped node. [lp] supplies the node's LP relaxation
   result (inline in the serial engine, possibly precomputed by a worker
   domain in the parallel one — the result is identical either way);
   [offer] announces each pushed child to the speculation pool. *)
let process_node s ~lp ~offer node =
  let ((lb, ub, res) : float array * float array * Simplex.result) = lp node in
  match res.Simplex.status with
  | Simplex.Infeasible -> ()
  | Simplex.Unbounded ->
    (* A bounded-relaxation MILP cannot have an unbounded node unless the
       root was unbounded, which is handled before the loop. *)
    s.bound_is_proven <- false
  | Simplex.Iteration_limit | Simplex.Numerical_failure ->
    (* Distinguish "the budget stopped this LP" (requeue: the frontier
       and bound stay exact) from a genuine numeric failure (the node is
       lost and the bound is no longer a certificate). *)
    if Budget.exhausted s.budget then requeue s node else s.bound_is_proven <- false
  | Simplex.Optimal ->
    let obj = res.Simplex.objective in
    let dominated =
      match s.incumbent with Some (best, _) -> obj >= best -. 1e-12 | None -> false
    in
    if not dominated then begin
      if is_integral s res.Simplex.x then ignore (try_incumbent s res.Simplex.x obj)
      else begin
        (match branch_variable s ~lb ~ub res.Simplex.x with
        | None -> ignore (try_incumbent s res.Simplex.x obj)
        | Some j ->
          let xj = res.Simplex.x.(j) in
          let warm = Some (res.Simplex.basis, res.Simplex.vstatus) in
          let child fixes =
            s.next_node_id <- s.next_node_id + 1;
            {
              n_id = s.next_node_id;
              n_bound = obj;
              n_fixes = fixes;
              n_warm = warm;
              n_parent = node.n_id;
            }
          in
          let down = child ((j, `Ub, Float.of_int (int_of_float (floor xj))) :: node.n_fixes) in
          let up = child ((j, `Lb, Float.of_int (int_of_float (ceil xj))) :: node.n_fixes) in
          let push n =
            Pqueue.push s.heap n.n_bound n;
            offer ~key:n.n_bound n
          in
          push down;
          push up);
        if s.nodes mod dive_period = 1 then dive s node res
      end
    end

(* The search loop plus engine selection, shared by fresh solves and
   resumes. [initial_offers] seeds the speculation pool with the open
   frontier (the root for a fresh solve, the whole restored frontier on
   resume). *)
let run_search s initial_offers =
  let rec loop ~lp ~offer ~discard () =
    if Faults.cancel_requested () then Budget.cancel s.budget;
    maybe_checkpoint s;
    if gap_closed s then finish s Unknown
    else if out_of_budget s then begin
      s.stop_hint <- Some (classify_stop s);
      finish s Unknown
    end
    else
      match Pqueue.pop s.heap with
      | None -> finish s Unknown
      | Some (_, node) ->
        let bound = node.n_bound in
        let dominated =
          match s.incumbent with
          | Some (best, _) -> bound >= best -. 1e-12
          | None -> false
        in
        if dominated then begin
          discard node;
          loop ~lp ~offer ~discard ()
        end
        else begin
          s.nodes <- s.nodes + 1;
          s.in_flight <- Some bound;
          process_node s ~lp ~offer node;
          s.in_flight <- None;
          report s;
          loop ~lp ~offer ~discard ()
        end
  in
  if s.p.jobs <= 1 then begin
    (* Serial engine: the LP is solved inline at the pop, exactly the
       pre-parallel code path. *)
    let lp node =
      let lb, ub, res, iters = node_lp s node in
      s.simplex_iters <- s.simplex_iters + iters;
      (lb, ub, res)
    in
    loop ~lp ~offer:(fun ~key:_ _ -> ()) ~discard:(fun _ -> ()) ()
  end
  else begin
    (* Parallel engine: worker domains speculatively solve the LP
       relaxations of open nodes (best-key first) while this domain
       replays the serial search verbatim. Every decision that shapes
       the tree — pruning, incumbent installation and certification,
       branching, diving — happens here, in serial order, so the
       outcome is bit-identical to [jobs = 1] whenever the run is not
       cut short by a wall-clock limit; the workers only hide LP
       latency. Workers drop nodes dominated by the atomically
       published incumbent: the coordinator's incumbent at pop time
       can only be at least as good, so it prunes those nodes too and
       never demands their result. Cancellation reaches workers through
       the budget carried by every node LP's simplex params, so a drain
       after Ctrl-C takes at most one deadline-check interval. *)
    let solve_task node = try Ok (node_lp s node) with e -> Error e in
    let skip node = node.n_bound >= Atomic.get s.inc_published -. 1e-12 in
    let pool = Par_pool.create ~workers:(s.p.jobs - 1) ~solve:solve_task ~skip in
    let lp node =
      let outcome =
        match Par_pool.demand pool ~id:node.n_id with
        | Par_pool.Ready r -> r
        | Par_pool.Claimed -> solve_task node
      in
      match outcome with
      | Ok (lb, ub, res, iters) ->
        s.simplex_iters <- s.simplex_iters + iters;
        (lb, ub, res)
      | Error e -> raise e
    in
    let offer ~key node = Par_pool.offer pool ~id:node.n_id ~key node in
    let discard node = Par_pool.discard pool ~id:node.n_id in
    List.iter (fun (key, n) -> offer ~key n) initial_offers;
    match loop ~lp ~offer ~discard () with
    | out ->
      let speculated, dropped = Par_pool.stats pool in
      Logs.debug (fun m ->
          m "parallel b&b: %d nodes, %d LPs speculated by %d workers, %d dropped as dominated"
            s.nodes speculated (s.p.jobs - 1) dropped);
      Par_pool.shutdown pool;
      out
    | exception e ->
      Par_pool.shutdown pool;
      raise e
  end

let solve ?(params = default_params) ?budget ?checkpoint ?certify_against ?mip_start
    ?(on_progress = fun _ -> ()) ?resume problem =
  let budget =
    match budget with Some b -> b | None -> Budget.create ?limit:params.time_limit ()
  in
  let sf = Stdform.of_problem problem in
  let root_lb, root_ub = Stdform.bounds sf in
  let s =
    {
      sf;
      problem;
      certify = (match certify_against with Some p -> p | None -> problem);
      p = params;
      root_lb;
      root_ub;
      heap =
        (match resume with Some sn -> Pqueue.of_raw sn.sn_heap | None -> Pqueue.create ());
      next_node_id = (match resume with Some sn -> sn.sn_next_node_id | None -> 0);
      budget;
      ckpt =
        Option.map
          (fun (every, sink) ->
            ((if every <= 0 then Checkpoint.default_every_nodes else every), sink))
          checkpoint;
      last_ckpt = (match resume with Some sn -> sn.sn_nodes | None -> 0);
      stop_hint = None;
      on_progress;
      incumbent = (match resume with Some sn -> sn.sn_incumbent | None -> None);
      seed = (match resume with Some sn -> sn.sn_seed | None -> None);
      inc_published =
        Atomic.make
          (match resume with Some { sn_incumbent = Some (v, _); _ } -> v | _ -> infinity);
      factors = Array.init factor_slots (fun _ -> Atomic.make None);
      root_done = (match resume with Some sn -> sn.sn_root_done | None -> false);
      in_flight = None;
      nodes = (match resume with Some sn -> sn.sn_nodes | None -> 0);
      simplex_iters = (match resume with Some sn -> sn.sn_simplex_iters | None -> 0);
      rejected_incumbents =
        (match resume with Some sn -> sn.sn_rejected_incumbents | None -> 0);
      bound_is_proven = (match resume with Some sn -> sn.sn_bound_is_proven | None -> true);
      trace = [];
      last_reported = None;
    }
  in
  match resume with
  | Some _ ->
    (* The snapshot already contains the root bound, the frontier in
       byte-identical heap layout and the certified incumbent; re-running
       presolve, the MIP start or the root LP would only risk divergence.
       Re-announce the restored state, then continue popping exactly
       where the interrupted run stopped. *)
    report ~force:true s;
    run_search s (Array.to_list (Pqueue.raw s.heap))
  | None -> (
    (* Install the MIP start, if any. The candidate is re-certified here
       no matter who produced it — heuristic, cache translation or test —
       and the chaos hook gets a chance to corrupt it first, because this
       gate is exactly what must keep a stale or damaged candidate from
       ever becoming an incumbent. A rejected start degrades to a cold
       start, honestly: no seed provenance is recorded. *)
    (match mip_start with
    | None -> ()
    | Some { Warm_start.ws_x; ws_source } ->
      if Array.length ws_x <> sf.Stdform.nstruct then
        invalid_arg "Branch_bound.solve: mip_start length mismatch";
      let x0 = Faults.mangle_warm_start ws_x in
      let value v = x0.(v) in
      (match Certify.check_point s.certify value with
      | Certify.Certified r ->
        let obj = Stdform.internal_of_user sf r.Certify.r_objective in
        let full = Array.make sf.Stdform.ncols 0. in
        Array.blit x0 0 full 0 sf.Stdform.nstruct;
        (* Logical values follow from the structural ones. *)
        Problem.iter_constrs
          (fun i c ->
            full.(sf.Stdform.nstruct + i) <-
              c.Problem.c_rhs -. Linexpr.eval value c.Problem.c_expr)
          problem;
        s.incumbent <- Some (obj, full);
        s.seed <- Some { Warm_start.sd_source = ws_source; sd_objective = r.Certify.r_objective };
        Atomic.set s.inc_published obj;
        (* The anytime contract: a warm start is an incumbent before any
           search happens (its bound is still unproven, hence -inf). *)
        report s
      | Certify.Rejected msg ->
        Logs.warn (fun m -> m "MIP start (%s) rejected: %s" ws_source msg)));
    (* Root relaxation. *)
    let res = solve_node s ~warm:None ~lb:root_lb ~ub:root_ub () in
    match res.Simplex.status with
    | Simplex.Infeasible ->
      s.root_done <- true;
      finish s Infeasible
    | Simplex.Unbounded -> finish s Unbounded
    | Simplex.Iteration_limit | Simplex.Numerical_failure ->
      (* A root LP stopped by the budget leaves the trivial -inf bound,
         which is still a certificate; only a genuine numeric failure
         makes the reported bound suspect. *)
      if Budget.exhausted s.budget then s.stop_hint <- Some (classify_stop s)
      else s.bound_is_proven <- false;
      finish s Unknown
    | Simplex.Optimal ->
      s.root_done <- true;
      let root =
        {
          n_id = 0;
          n_bound = res.Simplex.objective;
          n_fixes = [];
          n_warm = None;
          n_parent = -1;
        }
      in
      if is_integral s res.Simplex.x then begin
        ignore (try_incumbent s res.Simplex.x res.Simplex.objective);
        finish s Optimal
      end
      else begin
        Pqueue.push s.heap root.n_bound root;
        run_search s [ (root.n_bound, root) ]
      end)
