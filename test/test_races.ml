(* test_races — seeded schedule-perturbation race harness.

   Re-runs the concurrency invariants the ordinary suites check once —
   exactly one response per request, byte-identical certified plans
   across domain counts, flight cleanup under injected handler aborts —
   under ~200 perturbed schedules driven by [Faults.f_yield_every]:
   seeded spins at the lock-shaped seams of the pool, the scheduler's
   flight table, the plan cache and the budget polls, so interleavings
   the unperturbed scheduler rarely produces get explored
   deterministically enough to replay.

   Every schedule is derived from one campaign seed, printed FIRST so a
   CI failure is replayable locally:

     JOINOPT_RACE_SEED=<seed> dune exec test/test_races.exe

   JOINOPT_RACE_ITERS tunes the iteration count (default 200). Like the
   chaos soak this is a standalone campaign, not part of `dune runtest`
   — it spawns worker-domain pools per iteration. Any interleaving bug
   class this harness can surface maps to an S1xx srclint code: a lost
   update in a spawn closure is S104, an AB-BA deadlock is S101, a wait
   on the wrong mutex is S103, a stall while holding a lock is S102
   (see DESIGN.md section 9). *)

module Faults = Milp.Faults
module Plan = Relalg.Plan
module Join_graph = Relalg.Join_graph
module Workload = Relalg.Workload
module Query_file = Relalg.Query_file
module Json = Service.Json
module Plan_cache = Service.Plan_cache
module Scheduler = Service.Scheduler
module Server = Service.Server

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string (String.trim s) with _ -> default)
  | None -> default

let seed = env_int "JOINOPT_RACE_SEED" 42
let iters = env_int "JOINOPT_RACE_ITERS" 200

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let quick_config =
  Joinopt.Optimizer.default_config |> Joinopt.Optimizer.with_time_limit 10.

(* Cumulative count of yield points that actually fired: the campaign
   is vacuous if the perturbation never triggers. *)
let total_yields = ref 0

let with_yields plan f =
  Faults.install plan;
  Fun.protect
    ~finally:(fun () ->
      total_yields := !total_yields + Faults.yields_fired ();
      Faults.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Scenario A: scheduler — byte-identical certified plans               *)
(* ------------------------------------------------------------------ *)

let shapes = [| Join_graph.Star; Join_graph.Chain; Join_graph.Cycle |]
let n_batches = 5

let batch k =
  Scheduler.synthetic_batch ~dup_fraction:0.6 ~seed:(seed + k)
    ~shape:shapes.(k mod Array.length shapes) ~num_tables:5 ~count:5 ()

(* Serial, cache-less, fault-free reference runs, one per batch. *)
let baselines = Array.make n_batches None

let baseline k =
  match baselines.(k) with
  | Some b -> b
  | None ->
    let b = fst (Scheduler.run ~config:quick_config (batch k)) in
    baselines.(k) <- Some b;
    b

let plan_repr = function
  | None -> "<none>"
  | Some p ->
    Printf.sprintf "[%s] %s"
      (String.concat ";" (Array.to_list (Array.map string_of_int p.Plan.order)))
      (String.concat ";"
         (Array.to_list (Array.map Plan.operator_to_string p.Plan.operators)))

let obj_repr = function
  | None -> "<none>"
  | Some o -> Printf.sprintf "%.17g" o

let scenario_scheduler i =
  let k = i mod n_batches in
  let cache = Plan_cache.create ~capacity:32 () in
  let reports, stats =
    with_yields
      { Faults.none with Faults.f_seed = seed + i; f_yield_every = 3 }
      (fun () ->
        Scheduler.run ~config:quick_config ~cache ~jobs:4 (batch k))
  in
  if stats.Scheduler.s_failures <> 0 then
    fail "iter %d scheduler: %d failures under pure yield perturbation" i
      stats.Scheduler.s_failures;
  let base = baseline k in
  if List.length reports <> List.length base then
    fail "iter %d scheduler: %d reports for %d requests" i (List.length reports)
      (List.length base)
  else
    List.iter2
      (fun (a : Scheduler.report) (b : Scheduler.report) ->
        if a.Scheduler.o_label <> b.Scheduler.o_label then
          fail "iter %d scheduler: report order diverged (%s vs %s)" i
            a.Scheduler.o_label b.Scheduler.o_label;
        let pa = plan_repr a.Scheduler.o_plan and pb = plan_repr b.Scheduler.o_plan in
        if pa <> pb then
          fail "iter %d scheduler %s: plan diverged under perturbation: %s vs %s" i
            a.Scheduler.o_label pa pb;
        let oa = obj_repr a.Scheduler.o_objective
        and ob = obj_repr b.Scheduler.o_objective in
        if oa <> ob then
          fail "iter %d scheduler %s: objective diverged: %s vs %s" i
            a.Scheduler.o_label oa ob)
      reports base

(* ------------------------------------------------------------------ *)
(* Scenario B: server stream — exactly one response, identical answers  *)
(* ------------------------------------------------------------------ *)

let server_config =
  {
    Server.default_config with
    Server.sv_rate = 0.;
    sv_burst = 0.;  (* admission off: every line must get a real answer *)
    sv_default_limit = 5.;
    sv_backoff = 0.;
    sv_degrade_after = 0;
  }

let optimize_line ~id q =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("op", Json.String "optimize");
         ("id", Json.String id);
         ("query", Json.String (Query_file.to_string q));
       ])

let stream_lines =
  let q1 = Workload.generate ~seed:(seed + 101) ~shape:Join_graph.Star ~num_tables:5 () in
  let q2 = Workload.generate ~seed:(seed + 102) ~shape:Join_graph.Chain ~num_tables:5 () in
  [
    optimize_line ~id:"r1" q1;
    optimize_line ~id:"r2" q1;  (* duplicate fingerprint: in-flight sharing *)
    optimize_line ~id:"r3" q2;
    "{\"op\":\"ping\",\"id\":\"p1\"}";
    optimize_line ~id:"r4" q1;  (* late duplicate: cache hit *)
  ]

(* id -> (status, plan|objective); the fields that must not depend on
   scheduling. [source]/[provenance] legitimately differ (solved vs
   shared vs cache-hit). *)
let answer_key line =
  match Json.parse line with
  | Error m -> ("<unparseable: " ^ m ^ ">", "", "")
  | Ok doc ->
    let str name =
      match Json.member name doc with
      | Some (Json.String s) -> s
      | Some v -> Json.to_string ~indent:false v
      | None -> "<absent>"
    in
    (str "id", str "status", str "plan" ^ "|" ^ str "objective")

let stream_baseline =
  lazy
    (let t = Server.create ~config:server_config () in
     List.map (fun l -> answer_key (Server.handle_line t l)) stream_lines)

let scenario_server i =
  let t = Server.create ~config:server_config () in
  let responses =
    with_yields
      { Faults.none with Faults.f_seed = seed + i; f_yield_every = 3 }
      (fun () -> Server.handle_stream t ~jobs:3 stream_lines)
  in
  if List.length responses <> List.length stream_lines then
    fail "iter %d server: %d responses for %d lines" i (List.length responses)
      (List.length stream_lines)
  else
    List.iter2
      (fun got (bid, bstatus, bplan) ->
        let id, status, plan = answer_key got in
        if id <> bid then
          fail "iter %d server: response for id %s arrived in %s's slot" i id bid;
        if status <> bstatus then
          fail "iter %d server %s: status %s (baseline %s)" i bid status bstatus;
        if status = "ok" && plan <> bplan then
          fail "iter %d server %s: plan/objective diverged: %s vs %s" i bid plan bplan)
      responses (Lazy.force stream_baseline)

(* ------------------------------------------------------------------ *)
(* Scenario C: flight cleanup — aborts + yields still terminate         *)
(* ------------------------------------------------------------------ *)

let scenario_aborts i =
  let k = i mod n_batches in
  let requests = batch k in
  let cache = Plan_cache.create ~capacity:32 () in
  let reports, _stats =
    with_yields
      { Faults.none with Faults.f_seed = seed + i; f_yield_every = 3; f_abort_every = 4 }
      (fun () ->
        Scheduler.run ~config:quick_config ~cache ~jobs:4 requests)
  in
  (* Aborted handlers may fail their own request, but every request must
     still get exactly one report (a shared flight whose leader aborted
     must be cleaned up, not waited on forever — reaching this line at
     all is the termination half of the invariant). *)
  if List.length reports <> List.length requests then
    fail "iter %d aborts: %d reports for %d requests" i (List.length reports)
      (List.length requests);
  List.iter2
    (fun (a : Scheduler.report) (r : Scheduler.request) ->
      if a.Scheduler.o_label <> r.Scheduler.r_label then
        fail "iter %d aborts: report for %s in %s's slot" i a.Scheduler.o_label
          r.Scheduler.r_label)
    reports requests

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "test_races: seed=%d iters=%d (JOINOPT_RACE_SEED=%d replays this campaign)\n%!"
    seed iters seed;
  let t0 = Milp.Budget.now () in
  for i = 0 to iters - 1 do
    (match i mod 3 with
    | 0 -> scenario_scheduler i
    | 1 -> scenario_server i
    | _ -> scenario_aborts i);
    if (i + 1) mod 25 = 0 then
      Printf.printf "  %d/%d schedules explored, %d yields fired, %d failures\n%!"
        (i + 1) iters !total_yields !failures
  done;
  if !total_yields = 0 then
    fail "perturbation never fired: the campaign was vacuous";
  Printf.printf
    "test_races: %d schedules, %d yield spins, %d failures in %.1fs (seed %d)\n%!"
    iters !total_yields !failures
    (Milp.Budget.now () -. t0)
    seed;
  exit (if !failures > 0 then 1 else 0)
