module Optimizer = Joinopt.Optimizer
module Cost_enc = Joinopt.Cost_enc
module Thresholds = Joinopt.Thresholds
module Budget = Milp.Budget
module Faults = Milp.Faults
module Plan = Relalg.Plan
module Query = Relalg.Query

type config = {
  sv_cache_capacity : int;
  sv_snapshot_path : string option;
  sv_snapshot_every : int;
  sv_rate : float;
  sv_burst : float;
  sv_max_queue : int;
  sv_default_limit : float;
  sv_max_limit : float;
  sv_retries : int;
  sv_backoff : float;
  sv_degrade_after : int;
  sv_probe_every : int;
  sv_jobs : int;
  sv_precision : Thresholds.precision;
  sv_cost : Cost_enc.spec;
  sv_warm : Protocol.warm_mode;
  sv_decomp : Optimizer.decomp_config;
  sv_max_conns : int;
  sv_backlog : int;
  sv_max_write_buf : int;
  sv_watchdog_grace : float;
  sv_drain_limit : float;
}

let default_config =
  {
    sv_cache_capacity = 1024;
    sv_snapshot_path = None;
    sv_snapshot_every = 16;
    sv_rate = 50.;
    sv_burst = 100.;
    sv_max_queue = 64;
    sv_default_limit = 10.;
    sv_max_limit = 120.;
    sv_retries = 2;
    sv_backoff = 0.02;
    sv_degrade_after = 3;
    sv_probe_every = 4;
    sv_jobs = 1;
    sv_precision = Thresholds.Medium;
    sv_cost = Cost_enc.Fixed_operator Plan.Hash_join;
    sv_warm = Protocol.Warm_cache;
    (* [Dc_auto]: small queries keep the exact certified path; queries
       past the decomposition threshold (or the hard mask ceiling, which
       the monolithic optimizer refuses outright) are partitioned
       instead of erroring. *)
    sv_decomp = { Optimizer.default_decomp with Optimizer.dc_policy = Optimizer.Dc_auto };
    sv_max_conns = 64;
    sv_backlog = 16;
    sv_max_write_buf = 4 * 1024 * 1024;
    sv_watchdog_grace = 1.;
    sv_drain_limit = 5.;
  }

type bucket = { mutable bk_tokens : float; mutable bk_last : float }

type phase_stat = {
  mutable ps_count : int;
  mutable ps_total : float;
  mutable ps_max : float;
}

let phase_stat () = { ps_count = 0; ps_total = 0.; ps_max = 0. }

let record ps dt =
  ps.ps_count <- ps.ps_count + 1;
  ps.ps_total <- ps.ps_total +. dt;
  if dt > ps.ps_max then ps.ps_max <- dt

type mode = Exact | Degraded

type t = {
  cfg : config;
  cache : Plan_cache.t;
  budget : Budget.t;  (* server lifetime; every request budget is a sub of it *)
  buckets : (string, bucket) Hashtbl.t;
  mu : Mutex.t;
      (* guards every mutable field below: request execution is
         concurrent, so the ladder state and the counters are shared
         across worker domains. Never held across a solve. *)
  mutable mode : mode;
  mutable strikes : int;  (* consecutive exact-path failures/timeouts *)
  mutable probe_clock : int;  (* degraded-mode request counter, drives probing *)
  mutable since_snapshot : int;  (* admitted optimizes since the last snapshot *)
  shutdown : bool Atomic.t;  (* set from signal handlers and worker domains *)
  mutable draining : bool;
  mutable drain_cancel : bool;  (* the drain sub-budget ran out; in-flight cancelled *)
  mutable snapshot_status : string;
  mutable queue_depth_probe : unit -> int;  (* wired when an executor attaches *)
  mutable queue_hwm_probe : unit -> int;
  (* counters *)
  mutable n_accepted : int;
  mutable n_rejected_rate : int;
  mutable n_rejected_queue : int;
  mutable n_malformed : int;
  mutable n_errors : int;
  mutable n_exact : int;
  mutable n_cache_hits : int;
  mutable n_warm : int;
  mutable n_degraded_cache : int;
  mutable n_degraded_heuristic : int;
  mutable n_decomposed : int;
  mutable n_clusters_solved : int;
  mutable n_seam_fallbacks : int;
  mutable n_timeouts : int;
  mutable n_retries : int;
  mutable n_probes : int;
  mutable n_recoveries : int;
  mutable n_degradations : int;
  mutable n_snapshots : int;
  mutable n_watchdog_cancels : int;
  mutable n_watchdog_kills : int;
  mutable n_late_responses : int;  (* answered by the watchdog first; worker's dropped *)
  mutable n_slow_evictions : int;
  mutable n_rejected_conns : int;
  mutable n_rejected_shutdown : int;
  mutable n_drain_completed : int;
  mutable n_drain_cancelled : int;
  lat_parse : phase_stat;
  lat_solve : phase_stat;
  lat_request : phase_stat;
}

let create ?(config = default_config) () =
  if config.sv_cache_capacity < 1 then
    invalid_arg "Server.create: cache capacity must be >= 1";
  if config.sv_max_queue < 1 then invalid_arg "Server.create: max queue must be >= 1";
  if config.sv_jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  if config.sv_max_conns < 1 then invalid_arg "Server.create: max conns must be >= 1";
  if config.sv_backlog < 1 then invalid_arg "Server.create: backlog must be >= 1";
  if config.sv_max_write_buf < 1024 then
    invalid_arg "Server.create: max write buffer must be >= 1024 bytes";
  if config.sv_watchdog_grace <= 0. then
    invalid_arg "Server.create: watchdog grace must be positive";
  if config.sv_drain_limit < 0. then
    invalid_arg "Server.create: drain limit must be >= 0";
  let cache = Plan_cache.create ~capacity:config.sv_cache_capacity () in
  let snapshot_status =
    match config.sv_snapshot_path with
    | None -> "disabled"
    | Some path ->
      if not (Sys.file_exists path) then "cold"
      else (
        (* A damaged snapshot is a logged cold start, never a crash:
           the checkpoint envelope verifies magic, schema tag, length
           and digest before anything is unmarshalled. *)
        match Plan_cache.load_into cache ~path with
        | Ok n -> Printf.sprintf "restored:%d" n
        | Error reason -> "damaged (cold start): " ^ reason)
  in
  {
    cfg = config;
    cache;
    budget = Budget.create ();
    buckets = Hashtbl.create 16;
    mu = Mutex.create ();
    mode = Exact;
    strikes = 0;
    probe_clock = 0;
    since_snapshot = 0;
    shutdown = Atomic.make false;
    draining = false;
    drain_cancel = false;
    snapshot_status;
    queue_depth_probe = (fun () -> 0);
    queue_hwm_probe = (fun () -> 0);
    n_accepted = 0;
    n_rejected_rate = 0;
    n_rejected_queue = 0;
    n_malformed = 0;
    n_errors = 0;
    n_exact = 0;
    n_cache_hits = 0;
    n_warm = 0;
    n_degraded_cache = 0;
    n_degraded_heuristic = 0;
    n_decomposed = 0;
    n_clusters_solved = 0;
    n_seam_fallbacks = 0;
    n_timeouts = 0;
    n_retries = 0;
    n_probes = 0;
    n_recoveries = 0;
    n_degradations = 0;
    n_snapshots = 0;
    n_watchdog_cancels = 0;
    n_watchdog_kills = 0;
    n_late_responses = 0;
    n_slow_evictions = 0;
    n_rejected_conns = 0;
    n_rejected_shutdown = 0;
    n_drain_completed = 0;
    n_drain_cancelled = 0;
    lat_parse = phase_stat ();
    lat_solve = phase_stat ();
    lat_request = phase_stat ();
  }

(* Short critical sections over [t.mu] — never held across a solve, a
   sleep, or any I/O. *)
let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception exn ->
    Mutex.unlock t.mu;
    raise exn

let shutdown_requested t = Atomic.get t.shutdown

let request_shutdown t = Atomic.set t.shutdown true

let save_snapshot t =
  match t.cfg.sv_snapshot_path with
  | None -> Ok ()
  | Some path -> (
    match Plan_cache.save t.cache ~path with
    | Ok () ->
      locked t (fun () ->
          t.n_snapshots <- t.n_snapshots + 1;
          t.since_snapshot <- 0);
      Ok ()
    | Error _ as e -> e)

let maybe_snapshot t =
  let due =
    locked t (fun () ->
        t.since_snapshot <- t.since_snapshot + 1;
        t.cfg.sv_snapshot_path <> None
        && t.cfg.sv_snapshot_every > 0
        && t.since_snapshot >= t.cfg.sv_snapshot_every)
  in
  if due then ignore (save_snapshot t)

(* --- admission ------------------------------------------------------ *)

(* Deterministic when [sv_rate = 0.]: the bucket holds exactly
   [sv_burst] requests per client, ever — which is what the tests and
   the overload CI storm rely on. *)
let admit t client =
  if t.cfg.sv_burst <= 0. then true
  else
    locked t @@ fun () ->
    let now = Budget.now () in
    let bk =
      match Hashtbl.find_opt t.buckets client with
      | Some bk -> bk
      | None ->
        let bk = { bk_tokens = t.cfg.sv_burst; bk_last = now } in
        Hashtbl.replace t.buckets client bk;
        bk
    in
    bk.bk_tokens <-
      Float.min t.cfg.sv_burst (bk.bk_tokens +. ((now -. bk.bk_last) *. t.cfg.sv_rate));
    bk.bk_last <- now;
    if bk.bk_tokens >= 1. then begin
      bk.bk_tokens <- bk.bk_tokens -. 1.;
      true
    end
    else false

(* --- the optimize path ---------------------------------------------- *)

(* One exact attempt; raises on injected aborts and transient crashes,
   which the retry ladder above it absorbs. *)
let attempt_exact budget ~mode ?warm rp =
  if Faults.request_aborts () then raise Faults.Injected_abort;
  Request_path.solve ~budget ~mode ?warm rp

(* Exact solve under the request budget with retry/backoff: attempt
   [1 + sv_retries] times while budget remains, pausing [sv_backoff *
   2^i] between attempts (capped by the remaining budget). This and the
   poll loop are the only places in lib/service allowed to block
   outside Budget/condition variables — srclint's S505 enforces it. *)
let solve_with_retries t request_budget ~mode ?warm rp =
  let rec go attempt backoff =
    match attempt_exact (Budget.sub request_budget ()) ~mode ?warm rp with
    | r -> Ok r
    | exception exn ->
      if attempt >= t.cfg.sv_retries || Budget.exhausted request_budget then
        Error (Printexc.to_string exn)
      else begin
        locked t (fun () -> t.n_retries <- t.n_retries + 1);
        let pause =
          match Budget.remaining request_budget with
          | Some rem -> Float.min backoff rem
          | None -> backoff
        in
        if pause > 0. then Unix.sleepf pause;
        go (attempt + 1) (backoff *. 2.)
      end
  in
  go 0 t.cfg.sv_backoff

(* The heuristic rung at the bottom of the ladder: greedy is O(n^2),
   always produces a plan, and is costed under the request's exact
   metric — an honest answer in microseconds when the exact path cannot
   meet its deadline. *)
let heuristic_answer (config : Optimizer.config) q =
  let metric = Optimizer.exact_metric config.Optimizer.cost in
  let operators =
    match config.Optimizer.cost with
    | Cost_enc.Fixed_operator op -> Dp_opt.Selinger.Fixed op
    | Cost_enc.Cout -> Dp_opt.Selinger.Fixed Plan.Hash_join
    | Cost_enc.Choose_operator _ -> Dp_opt.Selinger.Best_per_join
  in
  Dp_opt.Greedy.plan ~metric ~operators q

type answer = {
  a_source : string;
  a_degraded : bool;
  a_decomposed : bool;
  a_provenance : string;
  a_plan : Plan.t;  (* in the request's own numbering *)
  a_objective : float option;
  a_bound : float;
  a_true_cost : float option;
}

let answer_of_entry fp source degraded (e : Plan_cache.entry) =
  {
    a_source = source;
    a_degraded = degraded;
    a_decomposed = e.Plan_cache.e_decomposed;
    a_provenance =
      (if degraded then "degraded:cache(" ^ e.Plan_cache.e_provenance ^ ")"
       else e.Plan_cache.e_provenance);
    a_plan = Fingerprint.plan_of_canonical fp e.Plan_cache.e_plan;
    a_objective = e.Plan_cache.e_objective;
    a_bound = e.Plan_cache.e_bound;
    a_true_cost = e.Plan_cache.e_true_cost;
  }

(* Serve one admitted optimize request through the ladder. The cache
   key, lookup, warm start and solve are {!Request_path}'s, shared with
   the batch scheduler; what stays here is the server's policy around
   them — retries, strikes, degraded mode and supervision.

   [watch] is the supervision hook: called with the request's (isolated)
   budget and deadline when a solve starts, returning the
   unregister thunk. The executor's watchdog uses it to cancel — and
   eventually force-answer — a request that blows past its deadline;
   the synchronous [handle_line] path passes a no-op. *)
let optimize_answer t ~watch (p : Protocol.optimize_params) =
  let config =
    { Optimizer.default_config with Optimizer.cost = Option.value ~default:t.cfg.sv_cost p.Protocol.p_cost }
    |> Optimizer.with_precision
         (Option.value ~default:t.cfg.sv_precision p.Protocol.p_precision)
    |> Optimizer.with_decomp
         (match p.Protocol.p_decomp with
         | Some policy -> { t.cfg.sv_decomp with Optimizer.dc_policy = policy }
         | None -> t.cfg.sv_decomp)
  in
  let limit =
    Float.min (Option.value ~default:t.cfg.sv_default_limit p.Protocol.p_budget)
      t.cfg.sv_max_limit
  in
  let config = Optimizer.with_time_limit limit config in
  let q = p.Protocol.p_query in
  let mode = Option.value ~default:t.cfg.sv_warm p.Protocol.p_warm in
  let rp = Request_path.prepare config q in
  let fp = rp.Request_path.rp_fp in
  let decomposing = rp.Request_path.rp_decomposing in
  let degraded_fallback stale =
    match stale with
    | Some entry ->
      locked t (fun () -> t.n_degraded_cache <- t.n_degraded_cache + 1);
      answer_of_entry fp "degraded-cache" true entry
    | None when decomposing ->
      (* Greedy's bitmask estimator cannot touch a 100+-table query, so
         the bottom rung for a decomposing request is the mask-free wide
         model over the identity order: always a valid plan, honestly
         labeled, in microseconds. *)
      locked t (fun () -> t.n_degraded_heuristic <- t.n_degraded_heuristic + 1);
      let order = Array.init (Query.num_tables q) (fun i -> i) in
      let plan = Decomp.Wide_cost.optimal_operators q order in
      let cost =
        Decomp.Wide_cost.plan_cost
          ~metric:(Optimizer.exact_metric config.Optimizer.cost) q plan
      in
      {
        a_source = "degraded-heuristic";
        a_degraded = true;
        a_decomposed = true;
        a_provenance = "degraded:wide-identity";
        a_plan = plan;
        a_objective = None;
        a_bound = 0.;
        a_true_cost = Some cost;
      }
    | None ->
      locked t (fun () -> t.n_degraded_heuristic <- t.n_degraded_heuristic + 1);
      let plan, cost = heuristic_answer config q in
      {
        a_source = "degraded-heuristic";
        a_degraded = true;
        a_decomposed = false;
        a_provenance = "degraded:greedy";
        a_plan = plan;
        a_objective = None;
        a_bound = 0.;
        a_true_cost = Some cost;
      }
  in
  (* One supervised solve, exact or decomposed. The per-request deadline
     is drawn from the server's lifetime budget — isolated, so the
     watchdog (or the drain sub-budget) can cancel this one request
     without tripping every other in-flight solve; cancelling the
     lifetime budget still winds it down. Exact solves retry; the
     decomposition driver already degrades per cluster under its own
     budget slices, so it gets one attempt. [None] means no answer: a
     strike on the ladder. *)
  let solve warm =
    let request_budget = Budget.sub t.budget ~limit ~isolate:true () in
    let unregister = watch request_budget limit in
    let outcome =
      Fun.protect ~finally:unregister (fun () ->
          (* Chaos wedge: a solve stuck between cooperative cancellation
             checks. Registered with the watchdog above, so supervision —
             not this request's own deadline — must produce the answer. *)
          let wedge = Faults.request_wedge () in
          if wedge > 0. then Unix.sleepf wedge;
          let t0 = Budget.now () in
          let outcome =
            if decomposing then
              try
                Ok
                  (Request_path.solve ~jobs:t.cfg.sv_jobs ~budget:request_budget ~mode
                     ?warm rp)
              with exn -> Error (Printexc.to_string exn)
            else solve_with_retries t request_budget ~mode ?warm rp
          in
          locked t (fun () -> record t.lat_solve (Budget.now () -. t0));
          outcome)
    in
    match outcome with
    | Ok { Request_path.so_entry = Some entry; so_completed; so_clusters; so_seam_fallback }
      ->
      (* A completed solve clears the strikes; an exact timeout is one.
         A decomposition with a degraded cluster is neither. *)
      locked t (fun () ->
          if decomposing then begin
            t.n_decomposed <- t.n_decomposed + 1;
            t.n_clusters_solved <- t.n_clusters_solved + so_clusters;
            if so_seam_fallback then t.n_seam_fallbacks <- t.n_seam_fallbacks + 1
          end;
          if so_completed then t.strikes <- 0
          else if not decomposing then begin
            t.n_timeouts <- t.n_timeouts + 1;
            t.strikes <- t.strikes + 1
          end);
      Plan_cache.add t.cache rp.Request_path.rp_key entry;
      locked t (fun () -> t.n_exact <- t.n_exact + 1);
      Some (answer_of_entry fp (if decomposing then "decomposed" else "solved") false entry)
    | Ok { Request_path.so_entry = None; _ } | Error _ ->
      locked t (fun () -> t.strikes <- t.strikes + 1);
      None
  in
  let answer =
    let lookup = Request_path.lookup t.cache rp in
    let stale = match lookup with Plan_cache.Stale_precision e -> Some e | _ -> None in
    let warm = Request_path.warm_entry mode rp lookup in
    match lookup with
    | Plan_cache.Hit entry ->
      locked t (fun () -> t.n_cache_hits <- t.n_cache_hits + 1);
      answer_of_entry fp "cache-hit" false entry
    | Plan_cache.Stale_precision _ | Plan_cache.Miss when decomposing -> (
      (* Decomposing requests bypass the exact retry/probe ladder. A
         stale-precision exact entry is still a valid (honestly-labeled)
         fallback plan if the pipeline dies. *)
      match solve warm with
      | Some a -> a
      | None -> degraded_fallback stale)
    | Plan_cache.Stale_precision _ | Plan_cache.Miss -> (
      match locked t (fun () -> t.mode) with
      | Exact -> (
        match solve warm with
        | Some a ->
          if warm <> None then locked t (fun () -> t.n_warm <- t.n_warm + 1);
          a
        | None ->
          locked t (fun () ->
              if t.cfg.sv_degrade_after > 0 && t.strikes >= t.cfg.sv_degrade_after
                 && t.mode = Exact
              then begin
                t.mode <- Degraded;
                t.probe_clock <- 0;
                t.n_degradations <- t.n_degradations + 1
              end);
          degraded_fallback stale)
      | Degraded ->
        (* Probe the exact path every k-th request; a clean completion
           recovers the server, anything else keeps it degraded. *)
        let probe =
          locked t (fun () ->
              t.probe_clock <- t.probe_clock + 1;
              t.cfg.sv_probe_every > 0 && t.probe_clock mod t.cfg.sv_probe_every = 0)
        in
        if probe then begin
          locked t (fun () -> t.n_probes <- t.n_probes + 1);
          match solve warm with
          | Some a ->
            locked t (fun () ->
                if t.strikes = 0 && t.mode = Degraded then begin
                  t.mode <- Exact;
                  t.n_recoveries <- t.n_recoveries + 1
                end);
            (* answered exactly; recovered only on a clean completion *)
            a
          | None -> degraded_fallback stale
        end
        else degraded_fallback stale)
  in
  maybe_snapshot t;
  answer

(* --- request dispatch ----------------------------------------------- *)

let json_of_opt_float = function Some f -> Json.Float f | None -> Json.Null

let json_of_phase ps =
  Json.Obj
    [
      ("count", Json.Int ps.ps_count);
      ("total", Json.Float ps.ps_total);
      ( "mean",
        Json.Float (if ps.ps_count = 0 then 0. else ps.ps_total /. float_of_int ps.ps_count)
      );
      ("max", Json.Float ps.ps_max);
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

let stats_json t =
  Json.Obj
    [
      ("uptime", Json.Float (Budget.elapsed t.budget));
      ("mode", Json.String (match t.mode with Exact -> "exact" | Degraded -> "degraded"));
      ( "admission",
        Json.Obj
          [
            ("accepted", Json.Int t.n_accepted);
            ("rejected_rate", Json.Int t.n_rejected_rate);
            ("rejected_queue", Json.Int t.n_rejected_queue);
            ("malformed", Json.Int t.n_malformed);
            ("errors", Json.Int t.n_errors);
          ] );
      ( "answers",
        Json.Obj
          [
            ("solved", Json.Int t.n_exact);
            ("cache_hits", Json.Int t.n_cache_hits);
            ("warm_started", Json.Int t.n_warm);
            ("degraded_cache", Json.Int t.n_degraded_cache);
            ("degraded_heuristic", Json.Int t.n_degraded_heuristic);
            ("timeouts", Json.Int t.n_timeouts);
            ("retries", Json.Int t.n_retries);
          ] );
      ( "decomposition",
        Json.Obj
          [
            ("queries", Json.Int t.n_decomposed);
            ("clusters_solved", Json.Int t.n_clusters_solved);
            ("seam_fallbacks", Json.Int t.n_seam_fallbacks);
          ] );
      ( "degradation",
        Json.Obj
          [
            ("strikes", Json.Int t.strikes);
            ("entered", Json.Int t.n_degradations);
            ("probes", Json.Int t.n_probes);
            ("recoveries", Json.Int t.n_recoveries);
          ] );
      ( "snapshot",
        Json.Obj
          [
            ("status", Json.String t.snapshot_status);
            ("written", Json.Int t.n_snapshots);
          ] );
      ( "supervision",
        Json.Obj
          [
            ("jobs", Json.Int t.cfg.sv_jobs);
            ("watchdog_cancels", Json.Int t.n_watchdog_cancels);
            ("watchdog_kills", Json.Int t.n_watchdog_kills);
            ("late_responses", Json.Int t.n_late_responses);
            ("slow_client_evictions", Json.Int t.n_slow_evictions);
            ("connections_rejected", Json.Int t.n_rejected_conns);
            ("queue_depth", Json.Int (t.queue_depth_probe ()));
            ("queue_high_water", Json.Int (t.queue_hwm_probe ()));
          ] );
      ( "drain",
        Json.Obj
          [
            ( "state",
              Json.String
                (if t.drain_cancel then "cancelled"
                 else if t.draining then "draining"
                 else "running") );
            ("rejected_shutdown", Json.Int t.n_rejected_shutdown);
            ("completed", Json.Int t.n_drain_completed);
            ("cancelled", Json.Int t.n_drain_cancelled);
          ] );
      ("cache", json_of_cache_stats (Plan_cache.stats t.cache));
      ( "latency",
        Json.Obj
          [
            ("parse", json_of_phase t.lat_parse);
            ("solve", json_of_phase t.lat_solve);
            ("request", json_of_phase t.lat_request);
          ] );
    ]

let ok_fields fields = ("status", Json.String "ok") :: fields

(* A no-op supervision hook: the synchronous [handle_line] path runs
   unsupervised (its caller blocks on it anyway). *)
let unwatched _budget _limit = fun () -> ()

let handle_line_watched t ?(client = "default") ~watch line =
  let t_req = Budget.now () in
  let t0 = Budget.now () in
  let parsed = Protocol.request_of_line line in
  locked t (fun () -> record t.lat_parse (Budget.now () -. t0));
  let resp =
    match parsed with
    | Error reason ->
      locked t (fun () -> t.n_malformed <- t.n_malformed + 1);
      (* Best effort at echoing the id even for invalid requests, so a
         client can correlate the rejection. *)
      let id =
        match Json.parse line with
        | Ok doc -> Option.value ~default:Json.Null (Json.member "id" doc)
        | Error _ -> Json.Null
      in
      Protocol.error_response ~id reason
    | Ok req -> (
      let id = req.Protocol.rq_id in
      let client = if req.Protocol.rq_client <> "default" then req.Protocol.rq_client else client in
      match req.Protocol.rq_op with
      | Protocol.Ping -> Protocol.response ~id (ok_fields [ ("pong", Json.Bool true) ])
      | Protocol.Stats -> Protocol.response ~id (ok_fields [ ("stats", stats_json t) ])
      | Protocol.Bump_epoch ->
        Plan_cache.bump_epoch t.cache;
        Protocol.response ~id
          (ok_fields [ ("epoch", Json.Int (Plan_cache.epoch t.cache)) ])
      | Protocol.Snapshot -> (
        match save_snapshot t with
        | Ok () ->
          Protocol.response ~id
            (ok_fields
               [
                 ( "snapshot",
                   match t.cfg.sv_snapshot_path with
                   | Some p -> Json.String p
                   | None -> Json.Null );
               ])
        | Error reason -> Protocol.error_response ~id ("snapshot failed: " ^ reason))
      | Protocol.Shutdown ->
        request_shutdown t;
        Protocol.response ~id (ok_fields [ ("shutting_down", Json.Bool true) ])
      | Protocol.Optimize p ->
        if not (admit t client) then begin
          locked t (fun () -> t.n_rejected_rate <- t.n_rejected_rate + 1);
          Protocol.rejected_response ~id "overload:rate"
        end
        else begin
          locked t (fun () -> t.n_accepted <- t.n_accepted + 1);
          match optimize_answer t ~watch p with
          | a ->
            Protocol.response ~id
              (ok_fields
                 [
                   ("source", Json.String a.a_source);
                   ("degraded", Json.Bool a.a_degraded);
                   ("decomposed", Json.Bool a.a_decomposed);
                   ( "mode",
                     Json.String
                       (match locked t (fun () -> t.mode) with
                       | Exact -> "exact"
                       | Degraded -> "degraded") );
                   ("provenance", Json.String a.a_provenance);
                   ( "plan",
                     Json.String
                       (Format.asprintf "%a" (Plan.pp_with_query p.Protocol.p_query) a.a_plan)
                   );
                   ("objective", json_of_opt_float a.a_objective);
                   ("bound", Json.Float a.a_bound);
                   ("true_cost", json_of_opt_float a.a_true_cost);
                   ("elapsed", Json.Float (Budget.now () -. t_req));
                 ])
          | exception exn ->
            (* The ladder itself crashed (should not happen — retries and
               fallbacks absorb solver failures): a definitive error
               response, never a dropped request. *)
            locked t (fun () -> t.n_errors <- t.n_errors + 1);
            Protocol.error_response ~id (Printexc.to_string exn)
        end)
  in
  locked t (fun () -> record t.lat_request (Budget.now () -. t_req));
  resp

let handle_line t ?client line = handle_line_watched t ?client ~watch:unwatched line

let id_of_line line =
  match Json.parse line with
  | Ok doc -> Option.value ~default:Json.Null (Json.member "id" doc)
  | Error _ -> Json.Null

let handle_batch t ?client lines =
  (* Queue-depth admission over a burst: everything past the first
     [sv_max_queue] pending lines is answered [overload:queue] without
     being processed — definitive, immediate, and cheap. *)
  List.mapi
    (fun i line ->
      if i >= t.cfg.sv_max_queue then begin
        locked t (fun () -> t.n_rejected_queue <- t.n_rejected_queue + 1);
        Protocol.rejected_response ~id:(id_of_line line) "overload:queue"
      end
      else handle_line t ?client line)
    lines

(* --- the concurrent executor ------------------------------------------ *)

(* One admitted request line. [jb_emit] delivers the single response;
   exactly-once is enforced by [jb_answered] under the executor mutex,
   so a worker finishing late can never double-answer a request the
   watchdog already force-answered. *)
type job = {
  jb_line : string;
  jb_client : string;
  jb_emit : string -> unit;
  mutable jb_answered : bool;
  mutable jb_budget : Budget.t option;  (* registered while a solve runs *)
  mutable jb_deadline : float;  (* absolute: solve start + limit + grace *)
  mutable jb_soft : bool;  (* watchdog already cancelled the budget *)
}

type exec = {
  ex_pool : job Milp.Work_pool.t;
  ex_mu : Mutex.t;
  ex_running : (int, job) Hashtbl.t;  (* ticket -> supervised solve *)
  mutable ex_ticket : int;
  mutable ex_drained : bool;
  ex_stop : bool Atomic.t;
  mutable ex_watchdog : unit Domain.t option;
}

(* Deliver [resp] for [job] if nobody else has; [true] iff this caller
   won. The loser's answer — usually a wedged worker finally returning
   after a watchdog kill — is dropped and counted, never sent. *)
let complete t ex job resp =
  (* Schedule-perturbation fault point: widens the worker-vs-watchdog
     race to answer first — exactly-one-response must hold either way. *)
  Faults.yield_point ();
  Mutex.lock ex.ex_mu;
  let first = not job.jb_answered in
  if first then job.jb_answered <- true;
  Mutex.unlock ex.ex_mu;
  if first then job.jb_emit resp
  else locked t (fun () -> t.n_late_responses <- t.n_late_responses + 1);
  first

(* Begin the graceful drain: stop dequeuing and answer the whole backlog
   [rejected:shutdown]. Called from the worker that just executed a
   shutdown op — while it still occupies its pool slot, so lines queued
   behind the op are deterministically rejected rather than raced — and
   from the poll loop when a signal arrives. Idempotent. *)
let exec_drain_begin t ex =
  Mutex.lock ex.ex_mu;
  let fresh = not ex.ex_drained in
  ex.ex_drained <- true;
  Mutex.unlock ex.ex_mu;
  if fresh then begin
    locked t (fun () -> t.draining <- true);
    let backlog = Milp.Work_pool.take_queued ex.ex_pool in
    Milp.Work_pool.shutdown ex.ex_pool;
    List.iter
      (fun job ->
        if
          complete t ex job
            (Protocol.rejected_response ~id:(id_of_line job.jb_line) "shutdown")
        then locked t (fun () -> t.n_rejected_shutdown <- t.n_rejected_shutdown + 1))
      backlog
  end

(* Cancel every supervised in-flight solve — the drain deadline passed. *)
let exec_cancel_running ex =
  Mutex.lock ex.ex_mu;
  Hashtbl.iter
    (fun _ job -> match job.jb_budget with Some b -> Budget.cancel b | None -> ())
    ex.ex_running;
  Mutex.unlock ex.ex_mu

(* Worker body: the supervision hook registers the request's isolated
   budget with the watchdog for exactly the duration of the solve. *)
let run_job t ex job =
  let watch budget limit =
    Mutex.lock ex.ex_mu;
    let ticket = ex.ex_ticket in
    ex.ex_ticket <- ticket + 1;
    job.jb_budget <- Some budget;
    job.jb_deadline <- Budget.now () +. limit +. t.cfg.sv_watchdog_grace;
    job.jb_soft <- false;
    Hashtbl.replace ex.ex_running ticket job;
    Mutex.unlock ex.ex_mu;
    fun () ->
      Mutex.lock ex.ex_mu;
      Hashtbl.remove ex.ex_running ticket;
      job.jb_budget <- None;
      Mutex.unlock ex.ex_mu
  in
  (* Slow-handler fault point: the stall burns this worker only; with
     [sv_jobs > 1] the other workers keep answering — the regression
     that used to freeze the whole select loop. *)
  let stall = Faults.request_stall () in
  if stall > 0. then Unix.sleepf stall;
  let resp =
    try handle_line_watched t ~client:job.jb_client ~watch job.jb_line
    with exn ->
      locked t (fun () -> t.n_errors <- t.n_errors + 1);
      Protocol.error_response ~id:(id_of_line job.jb_line) (Printexc.to_string exn)
  in
  if complete t ex job resp then
    locked t (fun () ->
        if t.draining then
          if t.drain_cancel then t.n_drain_cancelled <- t.n_drain_cancelled + 1
          else t.n_drain_completed <- t.n_drain_completed + 1);
  (* A shutdown op drains from inside the worker so that queued lines
     behind it cannot be dequeued first. *)
  if shutdown_requested t then exec_drain_begin t ex

(* One watchdog pass: soft-cancel solves past their deadline, then
   force-answer the ones that ignored the cancellation for another full
   grace period. Strike/ladder updates happen outside [ex_mu] — the two
   locks are never held together. *)
let watchdog_tick t ex =
  Faults.yield_point ();
  let now = Budget.now () in
  let soft = ref 0 in
  let kills = ref [] in
  Mutex.lock ex.ex_mu;
  let killed = ref [] in
  Hashtbl.iter
    (fun ticket job ->
      match job.jb_budget with
      | Some b when not job.jb_answered ->
        if now > job.jb_deadline && not job.jb_soft then begin
          job.jb_soft <- true;
          Budget.cancel b;
          incr soft
        end;
        if now > job.jb_deadline +. t.cfg.sv_watchdog_grace then begin
          killed := ticket :: !killed;
          kills := job :: !kills
        end
      | _ -> ())
    ex.ex_running;
  List.iter (fun ticket -> Hashtbl.remove ex.ex_running ticket) !killed;
  Mutex.unlock ex.ex_mu;
  if !soft > 0 then
    locked t (fun () -> t.n_watchdog_cancels <- t.n_watchdog_cancels + !soft);
  List.iter
    (fun job ->
      (* An honest error beats silence: the client gets a definitive
         answer now, the wedged worker's eventual result is dropped as a
         late response, and the ladder records a strike. *)
      if
        complete t ex job
          (Protocol.error_response ~id:(id_of_line job.jb_line)
             "watchdog: request exceeded its deadline")
      then
        locked t (fun () ->
            t.n_watchdog_kills <- t.n_watchdog_kills + 1;
            t.strikes <- t.strikes + 1;
            if
              t.cfg.sv_degrade_after > 0
              && t.strikes >= t.cfg.sv_degrade_after
              && t.mode = Exact
            then begin
              t.mode <- Degraded;
              t.probe_clock <- 0;
              t.n_degradations <- t.n_degradations + 1
            end))
    !kills

let watchdog_loop t ex =
  while not (Atomic.get ex.ex_stop) do
    Unix.sleepf 0.02;
    watchdog_tick t ex
  done

let exec_create t ~jobs =
  let ex_ref = ref None in
  let pool =
    Milp.Work_pool.create ~jobs ~capacity:t.cfg.sv_max_queue ~work:(fun job ->
        (* [ex_ref] is published before any submit: the pool mutex pair
           (submit/pop) orders this read after the write below. *)
        match !ex_ref with
        | Some ex -> run_job t ex job
        | None -> ())
  in
  let ex =
    {
      ex_pool = pool;
      ex_mu = Mutex.create ();
      ex_running = Hashtbl.create 32;
      ex_ticket = 0;
      ex_drained = false;
      ex_stop = Atomic.make false;
      ex_watchdog = None;
    }
  in
  ex_ref := Some ex;
  ex.ex_watchdog <- Some (Domain.spawn (fun () -> watchdog_loop t ex));
  locked t (fun () ->
      t.queue_depth_probe <- (fun () -> Milp.Work_pool.depth pool);
      t.queue_hwm_probe <- (fun () -> Milp.Work_pool.high_water pool));
  ex

(* Stop the watchdog and the pool. Worker domains are joined only when
   the pool is idle: a worker wedged past a watchdog kill must be left
   to die with the process (its response is already dropped as late) —
   joining it would block shutdown on exactly the fault the watchdog
   exists to survive. *)
let exec_stop ex =
  Milp.Work_pool.shutdown ex.ex_pool;
  let idle = Milp.Work_pool.idle ex.ex_pool in
  Atomic.set ex.ex_stop true;
  (match ex.ex_watchdog with Some d -> Domain.join d | None -> ());
  ex.ex_watchdog <- None;
  if idle then Milp.Work_pool.join ex.ex_pool

(* --- in-process concurrent entry point -------------------------------- *)

let handle_stream t ?(client = "stream") ?jobs lines =
  let jobs = match jobs with Some j -> j | None -> t.cfg.sv_jobs in
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let responses = Array.make n "" in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let completed = ref 0 in
  let ex = exec_create t ~jobs in
  let emit i resp =
    Mutex.lock mu;
    responses.(i) <- resp;
    incr completed;
    Condition.signal cond;
    Mutex.unlock mu
  in
  for i = 0 to n - 1 do
    let job =
      {
        jb_line = lines.(i);
        jb_client = client;
        jb_emit = emit i;
        jb_answered = false;
        jb_budget = None;
        jb_deadline = 0.;
        jb_soft = false;
      }
    in
    if not (Milp.Work_pool.submit ~block:true ex.ex_pool job) then begin
      (* the pool refused: a shutdown op earlier in the stream drained it *)
      locked t (fun () -> t.n_rejected_shutdown <- t.n_rejected_shutdown + 1);
      emit i (Protocol.rejected_response ~id:(id_of_line lines.(i)) "shutdown")
    end
  done;
  Mutex.lock mu;
  while !completed < n do
    Condition.wait cond mu
  done;
  Mutex.unlock mu;
  exec_stop ex;
  Array.to_list responses

(* --- connection transport --------------------------------------------- *)

(* Ordered response sink for one connection. Workers finish out of
   order; a response enters [sk_pending] keyed by its per-connection
   arrival index and moves to the wire buffer only in arrival order, so
   per-connection response order holds no matter how the pool
   interleaves. The wire buffer is bounded: a client that stops reading
   while responses pile up is evicted instead of wedging the loop or
   ballooning the heap. *)
type sink = {
  sk_mu : Mutex.t;
  sk_pending : (int, string) Hashtbl.t;
  mutable sk_emit_next : int;
  sk_wire : Buffer.t;
  mutable sk_submitted : int;
  mutable sk_dead : bool;
}

(* Per-connection line reassembly plus the outbound staging area for
   non-blocking writes. [cn_discard] is set once a line exceeds the
   protocol bound: the overflow is answered with one error and input is
   dropped until the next newline. *)
type conn = {
  cn_id : int;
  cn_in : Unix.file_descr;
  cn_out : Unix.file_descr;
  cn_client : string;
  cn_owned : bool;  (* loop closes the fds (accepted sockets, not stdio) *)
  cn_buf : Buffer.t;
  mutable cn_discard : bool;
  mutable cn_eof : bool;
  mutable cn_closed : bool;
  cn_sink : sink;
  mutable cn_stage : Bytes.t;
  mutable cn_stage_off : int;
}

let make_conn ?out_fd ~owned fd client id =
  {
    cn_id = id;
    cn_in = fd;
    cn_out = (match out_fd with Some o -> o | None -> fd);
    cn_client = client;
    cn_owned = owned;
    cn_buf = Buffer.create 4096;
    cn_discard = false;
    cn_eof = false;
    cn_closed = false;
    cn_sink =
      {
        sk_mu = Mutex.create ();
        sk_pending = Hashtbl.create 8;
        sk_emit_next = 0;
        sk_wire = Buffer.create 4096;
        sk_submitted = 0;
        sk_dead = false;
      };
    cn_stage = Bytes.empty;
    cn_stage_off = 0;
  }

(* Split the connection buffer into complete lines, keeping the
   unterminated tail buffered. Returns the lines plus whether the
   still-buffered tail overflowed the line bound. *)
let take_lines conn =
  let data = Buffer.contents conn.cn_buf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        let line = String.sub data !start (i - !start) in
        let line =
          if String.length line > 0 && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        (if conn.cn_discard then conn.cn_discard <- false
         else if String.trim line <> "" then lines := line :: !lines);
        start := i + 1
      end)
    data;
  Buffer.clear conn.cn_buf;
  Buffer.add_substring conn.cn_buf data !start (String.length data - !start);
  let overflow =
    (not conn.cn_discard) && Buffer.length conn.cn_buf > Protocol.max_line_bytes
  in
  if overflow then begin
    Buffer.clear conn.cn_buf;
    conn.cn_discard <- true
  end;
  (List.rev !lines, overflow)

let rec write_all fd bytes off len =
  if len > 0 then begin
    match Unix.write fd bytes off len with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes off len
  end

let write_line fd line =
  let bytes = Bytes.of_string (line ^ "\n") in
  write_all fd bytes 0 (Bytes.length bytes)

(* Read whatever is available; [`Eof] on orderly close. *)
let read_chunk fd conn chunk =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | n ->
    Buffer.add_subbytes conn.cn_buf chunk 0 n;
    `Data
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    -> `Again
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof

(* Deliver response [seq] — called from worker and watchdog domains.
   Moves ready responses to the wire in arrival order and wakes the poll
   loop through the self-pipe so it starts writing. *)
let sink_push t conn ~wake seq resp =
  Faults.yield_point ();
  let sk = conn.cn_sink in
  Mutex.lock sk.sk_mu;
  let evicted =
    if sk.sk_dead then false
    else begin
      Hashtbl.replace sk.sk_pending seq resp;
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt sk.sk_pending sk.sk_emit_next with
        | Some r ->
          Hashtbl.remove sk.sk_pending sk.sk_emit_next;
          Buffer.add_string sk.sk_wire r;
          Buffer.add_char sk.sk_wire '\n';
          sk.sk_emit_next <- sk.sk_emit_next + 1
        | None -> continue := false
      done;
      if Buffer.length sk.sk_wire > t.cfg.sv_max_write_buf then begin
        (* slow client: it stopped reading while answers accumulated *)
        sk.sk_dead <- true;
        Buffer.clear sk.sk_wire;
        Hashtbl.reset sk.sk_pending;
        true
      end
      else false
    end
  in
  Mutex.unlock sk.sk_mu;
  if evicted then locked t (fun () -> t.n_slow_evictions <- t.n_slow_evictions + 1);
  wake ()

(* Reserve the next per-connection arrival index. *)
let sink_seq conn =
  let sk = conn.cn_sink in
  Mutex.lock sk.sk_mu;
  let seq = sk.sk_submitted in
  sk.sk_submitted <- seq + 1;
  Mutex.unlock sk.sk_mu;
  seq

(* Hand one parsed line to the pool; a refusal is answered immediately —
   overload normally, shutdown during a drain — through the same ordered
   sink, so rejections keep their place in the response order. *)
let submit_line t ex conn ~wake line =
  let seq = sink_seq conn in
  let job =
    {
      jb_line = line;
      jb_client = conn.cn_client;
      jb_emit = (fun r -> sink_push t conn ~wake seq r);
      jb_answered = false;
      jb_budget = None;
      jb_deadline = 0.;
      jb_soft = false;
    }
  in
  if not (Milp.Work_pool.submit ex.ex_pool job) then
    if shutdown_requested t then begin
      locked t (fun () -> t.n_rejected_shutdown <- t.n_rejected_shutdown + 1);
      sink_push t conn ~wake seq
        (Protocol.rejected_response ~id:(id_of_line line) "shutdown")
    end
    else begin
      locked t (fun () -> t.n_rejected_queue <- t.n_rejected_queue + 1);
      sink_push t conn ~wake seq
        (Protocol.rejected_response ~id:(id_of_line line) "overload:queue")
    end

let ingest t ex conn ~wake =
  let lines, overflow = take_lines conn in
  List.iter (submit_line t ex conn ~wake) lines;
  if overflow then begin
    locked t (fun () -> t.n_malformed <- t.n_malformed + 1);
    sink_push t conn ~wake (sink_seq conn)
      (Protocol.error_response ~id:Json.Null "request line too long")
  end

(* Move bytes wire -> stage -> fd without ever blocking the loop;
   partial writes stay staged. EPIPE/reset marks the connection dead —
   the client went away; its remaining answers are dropped. *)
let flush_conn conn =
  let sk = conn.cn_sink in
  if conn.cn_stage_off >= Bytes.length conn.cn_stage then begin
    Mutex.lock sk.sk_mu;
    let data = Buffer.contents sk.sk_wire in
    Buffer.clear sk.sk_wire;
    Mutex.unlock sk.sk_mu;
    conn.cn_stage <- Bytes.of_string data;
    conn.cn_stage_off <- 0
  end;
  let len = Bytes.length conn.cn_stage - conn.cn_stage_off in
  if len > 0 then begin
    match Unix.write conn.cn_out conn.cn_stage conn.cn_stage_off len with
    | n -> conn.cn_stage_off <- conn.cn_stage_off + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      Mutex.lock sk.sk_mu;
      sk.sk_dead <- true;
      Buffer.clear sk.sk_wire;
      Mutex.unlock sk.sk_mu;
      conn.cn_stage <- Bytes.empty;
      conn.cn_stage_off <- 0
  end

let conn_dead conn =
  let sk = conn.cn_sink in
  Mutex.lock sk.sk_mu;
  let d = sk.sk_dead in
  Mutex.unlock sk.sk_mu;
  d

(* Every submitted line answered and every byte flushed. *)
let conn_flushed conn =
  conn.cn_stage_off >= Bytes.length conn.cn_stage
  &&
  let sk = conn.cn_sink in
  Mutex.lock sk.sk_mu;
  let d = sk.sk_emit_next = sk.sk_submitted && Buffer.length sk.sk_wire = 0 in
  Mutex.unlock sk.sk_mu;
  d

let has_output conn =
  conn.cn_stage_off < Bytes.length conn.cn_stage
  ||
  let sk = conn.cn_sink in
  Mutex.lock sk.sk_mu;
  let p = Buffer.length sk.sk_wire > 0 in
  Mutex.unlock sk.sk_mu;
  p

(* --- the poll loop ----------------------------------------------------- *)

let with_signals t f =
  (* Signals request a *drain*, not an abort: the loop stops accepting,
     the queued backlog is answered [rejected:shutdown], and in-flight
     solves finish under the drain window before being cancelled. The
     server's lifetime budget is left alone. SIGPIPE is ignored for the
     duration — a write to a vanished client surfaces as EPIPE and
     closes just that connection. *)
  let stop _ = request_shutdown t in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
  let prev_pipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      (match prev_pipe with
      | Some p -> Sys.set_signal Sys.sigpipe p
      | None -> ());
      (* every graceful exit path ends with a snapshot *)
      ignore (save_snapshot t))
    f

(* The poll loop shared by both transports: parse and admit only —
   execution lives on the pool's worker domains, responses come back
   through each connection's sink and the self-pipe wake-up. Runs until
   every connection drains (EOF mode) or a requested shutdown finishes
   its drain window. *)
let run_loop t ex ?listener initial_conns =
  let conns = ref initial_conns in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let wake_byte = Bytes.make 1 '!' in
  let wake () = try ignore (Unix.write wake_w wake_byte 0 1) with _ -> () in
  let chunk = Bytes.create 65536 in
  let next_conn = ref (List.length initial_conns) in
  let accepting = ref (listener <> None) in
  let drain_deadline = ref infinity in
  let hard_deadline = ref infinity in
  let close_conn conn =
    if not conn.cn_closed then begin
      conn.cn_closed <- true;
      if conn.cn_owned then begin
        (try Unix.close conn.cn_in with Unix.Unix_error _ -> ());
        if conn.cn_out != conn.cn_in then
          try Unix.close conn.cn_out with Unix.Unix_error _ -> ()
      end
    end;
    conns := List.filter (fun c -> c != conn) !conns
  in
  let accept_client srv =
    match Unix.accept srv with
    | fd, _ ->
      if List.length !conns >= t.cfg.sv_max_conns then begin
        (* explicit, immediate refusal — never a silent hang *)
        locked t (fun () -> t.n_rejected_conns <- t.n_rejected_conns + 1);
        (try write_line fd (Protocol.rejected_response ~id:Json.Null "overload:conns")
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        incr next_conn;
        conns :=
          make_conn ~owned:true fd (Printf.sprintf "conn-%d" !next_conn) !next_conn
          :: !conns
      end
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn !conns;
      (try Unix.close wake_r with Unix.Unix_error _ -> ());
      try Unix.close wake_w with Unix.Unix_error _ -> ())
    (fun () ->
      let running = ref true in
      while !running do
        (* enter the drain state machine once shutdown is requested *)
        if shutdown_requested t && !drain_deadline = infinity then begin
          exec_drain_begin t ex;
          accepting := false;
          drain_deadline := Budget.now () +. t.cfg.sv_drain_limit;
          hard_deadline :=
            !drain_deadline +. (2. *. t.cfg.sv_watchdog_grace) +. 1.
        end;
        let draining = !drain_deadline < infinity in
        if
          draining
          && (not (locked t (fun () -> t.drain_cancel)))
          && Budget.now () > !drain_deadline
        then begin
          (* drain window over: cancel what is still running *)
          locked t (fun () -> t.drain_cancel <- true);
          exec_cancel_running ex
        end;
        (* reap finished/evicted connections *)
        List.iter
          (fun c ->
            if conn_dead c then close_conn c
            else if (c.cn_eof || draining) && conn_flushed c then close_conn c)
          !conns;
        (* exit conditions *)
        if draining then begin
          if
            (Milp.Work_pool.idle ex.ex_pool && !conns = [])
            || Budget.now () > !hard_deadline
          then running := false
        end
        else if (not !accepting) && !conns = [] then running := false;
        if !running then begin
          let rfds =
            (match listener with Some srv when !accepting -> [ srv ] | _ -> [])
            @ wake_r
              :: List.filter_map
                   (fun c ->
                     if c.cn_eof || draining then None else Some c.cn_in)
                   !conns
          in
          let wfds =
            List.filter_map
              (fun c -> if has_output c then Some c.cn_out else None)
              !conns
          in
          match Unix.select rfds wfds [] (if draining then 0.02 else 0.1) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | readable, writable, _ ->
            if List.mem wake_r readable then begin
              let buf = Bytes.create 256 in
              let continue = ref true in
              while !continue do
                match Unix.read wake_r buf 0 256 with
                | n -> if n < 256 then continue := false
                | exception Unix.Unix_error _ -> continue := false
              done
            end;
            (match listener with
            | Some srv when !accepting && List.mem srv readable ->
              accept_client srv
            | _ -> ());
            List.iter
              (fun c ->
                if
                  (not c.cn_closed) && (not c.cn_eof)
                  && List.mem c.cn_in readable
                then begin
                  match read_chunk c.cn_in c chunk with
                  | `Eof ->
                    (* parse whatever is buffered, then stop reading *)
                    Buffer.add_char c.cn_buf '\n';
                    ingest t ex c ~wake;
                    c.cn_eof <- true
                  | `Data -> ingest t ex c ~wake
                  | `Again -> ()
                end)
              !conns;
            List.iter
              (fun c ->
                if (not c.cn_closed) && List.mem c.cn_out writable then
                  flush_conn c)
              !conns
        end
      done)

let serve_fds t in_fd out_fd =
  with_signals t (fun () ->
      let ex = exec_create t ~jobs:t.cfg.sv_jobs in
      Fun.protect
        ~finally:(fun () -> exec_stop ex)
        (fun () ->
          let conn = make_conn ~out_fd ~owned:false in_fd "default" 0 in
          run_loop t ex [ conn ]))

(* A second server must fail loudly instead of silently stealing the
   socket: probe [path] for a live listener before unlinking what might
   be only the stale remains of a crashed predecessor. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "serve_socket: %s already has a live server listening"
           path);
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  end

let serve_socket t ~path =
  claim_socket_path path;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv t.cfg.sv_backlog;
  Unix.set_nonblock srv;
  with_signals t (fun () ->
      let ex = exec_create t ~jobs:t.cfg.sv_jobs in
      Fun.protect
        ~finally:(fun () ->
          exec_stop ex;
          (try Unix.close srv with Unix.Unix_error _ -> ());
          try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
        (fun () -> run_loop t ex ~listener:srv []))
