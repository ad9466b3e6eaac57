(* Tests for the multi-query service layer: canonical fingerprints, the
   sharded plan cache, and the batch scheduler — including the
   differential check that caching never changes any certified answer. *)

module Catalog = Relalg.Catalog
module Predicate = Relalg.Predicate
module Query = Relalg.Query
module Join_graph = Relalg.Join_graph
module Workload = Relalg.Workload
module Plan = Relalg.Plan
module Fingerprint = Service.Fingerprint
module Plan_cache = Service.Plan_cache
module Scheduler = Service.Scheduler
module Json = Service.Json

let fp_digest q = Fingerprint.digest (Fingerprint.of_query q)

let rand_perm state len =
  let perm = Array.init len (fun i -> i) in
  for i = len - 1 downto 1 do
    let j = Random.State.int state (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  perm

(* A small decorated query exercising every fingerprint input: columns,
   an expensive binary predicate, an n-ary predicate and a correlation. *)
let decorated () =
  let tables =
    [
      Catalog.table
        ~columns:[ { Catalog.col_name = "a0"; col_bytes = 4. } ]
        "A" 100.;
      Catalog.table "B" 2000.;
      Catalog.table "C" 300.;
      Catalog.table "D" 40.;
    ]
  in
  let predicates =
    [
      Predicate.binary 0 1 0.1;
      Predicate.binary ~eval_cost:2.5 1 2 0.01;
      Predicate.nary [ 0; 2; 3 ] 0.05;
    ]
  in
  let correlations = [ Predicate.correlation ~members:[ 0; 1 ] ~correction:1.5 ] in
  Query.create ~predicates ~correlations tables

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                         *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_invariance () =
  let q = decorated () in
  let d = fp_digest q in
  let state = Random.State.make [| 42 |] in
  for _ = 1 to 25 do
    let q' = Query.permute_tables q ~perm:(rand_perm state (Query.num_tables q)) in
    let q' =
      Query.permute_predicates q' ~perm:(rand_perm state (Query.num_predicates q'))
    in
    Alcotest.(check string) "permutation-invariant digest" d (fp_digest q')
  done

let test_fingerprint_sensitivity () =
  let q = decorated () in
  let d = fp_digest q in
  let tables = Array.to_list q.Query.tables in
  let preds = Array.to_list q.Query.predicates in
  let corrs = Array.to_list q.Query.correlations in
  let differs reason q' =
    if fp_digest q' = d then Alcotest.failf "%s left the digest unchanged" reason
  in
  (* A cardinality change. *)
  differs "cardinality change"
    (Query.create ~predicates:preds ~correlations:corrs
       (Catalog.table
          ~columns:[ { Catalog.col_name = "a0"; col_bytes = 4. } ]
          "A" 101.
       :: List.tl tables));
  (* A table renaming. *)
  differs "table renaming"
    (Query.create ~predicates:preds ~correlations:corrs
       (Catalog.table
          ~columns:[ { Catalog.col_name = "a0"; col_bytes = 4. } ]
          "A2" 100.
       :: List.tl tables));
  (* A column-width change. *)
  differs "column bytes change"
    (Query.create ~predicates:preds ~correlations:corrs
       (Catalog.table
          ~columns:[ { Catalog.col_name = "a0"; col_bytes = 8. } ]
          "A" 100.
       :: List.tl tables));
  (* A selectivity change. *)
  differs "selectivity change"
    (Query.create
       ~predicates:(Predicate.binary 0 1 0.11 :: List.tl preds)
       ~correlations:corrs tables);
  (* An evaluation-cost change. *)
  differs "eval-cost change"
    (Query.create
       ~predicates:
         (List.nth preds 0
         :: Predicate.binary ~eval_cost:2.6 1 2 0.01
         :: [ List.nth preds 2 ])
       ~correlations:corrs tables);
  (* A correlation change. *)
  differs "correlation factor change"
    (Query.create ~predicates:preds
       ~correlations:[ Predicate.correlation ~members:[ 0; 1 ] ~correction:1.6 ]
       tables);
  differs "correlation removal" (Query.create ~predicates:preds tables);
  (* Predicate *names* must not matter. *)
  let renamed =
    Query.create
      ~predicates:
        (Predicate.binary ~name:"renamed" 0 1 0.1 :: List.tl preds)
      ~correlations:corrs tables
  in
  Alcotest.(check string) "predicate names excluded" d (fp_digest renamed)

let prop_fingerprint_invariant_generated =
  QCheck.Test.make ~count:60
    ~name:"fingerprint invariant under permutation (generated workloads)"
    QCheck.(triple (int_range 2 9) (int_range 0 3) (int_range 0 10_000))
    (fun (n, shape_ix, seed) ->
      let shape =
        List.nth
          [ Join_graph.Chain; Join_graph.Star; Join_graph.Cycle; Join_graph.Clique ]
          shape_ix
      in
      let q = Workload.generate ~seed ~shape ~num_tables:n () in
      let state = Random.State.make [| seed; n; shape_ix |] in
      let q' = Query.permute_tables q ~perm:(rand_perm state n) in
      let q' =
        Query.permute_predicates q' ~perm:(rand_perm state (Query.num_predicates q'))
      in
      fp_digest q = fp_digest q')

let test_plan_translation_roundtrip () =
  let q = decorated () in
  let state = Random.State.make [| 7 |] in
  let n = Query.num_tables q in
  for _ = 1 to 20 do
    let qperm = Query.permute_tables q ~perm:(rand_perm state n) in
    let fp = Fingerprint.of_query qperm in
    let order = rand_perm state n in
    let operators =
      Array.init (n - 1) (fun i ->
          match i mod 3 with
          | 0 -> Plan.Hash_join
          | 1 -> Plan.Sort_merge_join
          | _ -> Plan.Block_nested_loop)
    in
    let plan = Plan.of_order ~operators order in
    let back = Fingerprint.plan_of_canonical fp (Fingerprint.plan_to_canonical fp plan) in
    Alcotest.(check (array int)) "order round-trips" plan.Plan.order back.Plan.order;
    Alcotest.(check bool) "operators round-trip" true
      (plan.Plan.operators = back.Plan.operators);
    (* The canonical form of a plan must be valid for the canonical query. *)
    let canon = Fingerprint.plan_to_canonical fp plan in
    (match Plan.validate (Fingerprint.canonical_query qperm) canon with
    | Ok () -> ()
    | Error m -> Alcotest.failf "canonical plan invalid: %s" m)
  done

(* ------------------------------------------------------------------ *)
(* Plan cache                                                           *)
(* ------------------------------------------------------------------ *)

let entry ?(precision = "medium") obj =
  {
    Plan_cache.e_plan = Plan.of_order [| 0; 1 |];
    e_objective = Some obj;
    e_bound = obj;
    e_true_cost = Some obj;
    e_provenance = "milp-certified";
    e_precision = precision;
    e_decomposed = false;
  }

let key ?(fp = "fp") ?(precision = "medium") () =
  { Plan_cache.k_fingerprint = fp; k_cost = "cout"; k_precision = precision }

let test_cache_hit_miss_counters () =
  let c = Plan_cache.create ~shards:2 ~capacity:8 () in
  (match Plan_cache.find c (key ()) with
  | Plan_cache.Miss -> ()
  | _ -> Alcotest.fail "empty cache should miss");
  Plan_cache.add c (key ()) (entry 10.);
  (match Plan_cache.find c (key ()) with
  | Plan_cache.Hit e ->
    Alcotest.(check (option (float 0.))) "objective" (Some 10.) e.Plan_cache.e_objective
  | _ -> Alcotest.fail "inserted entry should hit");
  (* Same fingerprint and cost, different precision: a warm-startable
     stale hit, counted as a miss. *)
  (match Plan_cache.find c (key ~precision:"high" ()) with
  | Plan_cache.Stale_precision e ->
    Alcotest.(check string) "stale entry precision" "medium" e.Plan_cache.e_precision
  | Plan_cache.Hit _ -> Alcotest.fail "different precision must not hit exactly"
  | Plan_cache.Miss -> Alcotest.fail "sibling precision should warm-start");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Plan_cache.st_hits;
  Alcotest.(check int) "misses" 2 s.Plan_cache.st_misses;
  Alcotest.(check int) "stale hits" 1 s.Plan_cache.st_stale_hits;
  Alcotest.(check int) "insertions" 1 s.Plan_cache.st_insertions;
  Alcotest.(check int) "size" 1 s.Plan_cache.st_size

let test_cache_lru_eviction () =
  let c = Plan_cache.create ~shards:1 ~capacity:3 () in
  let k i = key ~fp:(Printf.sprintf "fp%d" i) () in
  Plan_cache.add c (k 0) (entry 0.);
  Plan_cache.add c (k 1) (entry 1.);
  Plan_cache.add c (k 2) (entry 2.);
  (* Touch fp0 so fp1 is the least recently used. *)
  (match Plan_cache.find c (k 0) with
  | Plan_cache.Hit _ -> ()
  | _ -> Alcotest.fail "fp0 should hit");
  Plan_cache.add c (k 3) (entry 3.);
  (match Plan_cache.find c (k 1) with
  | Plan_cache.Miss -> ()
  | _ -> Alcotest.fail "LRU entry fp1 should have been evicted");
  (match Plan_cache.find c (k 0) with
  | Plan_cache.Hit _ -> ()
  | _ -> Alcotest.fail "recently used fp0 must survive eviction");
  (match Plan_cache.find c (k 3) with
  | Plan_cache.Hit _ -> ()
  | _ -> Alcotest.fail "newest entry fp3 must be present");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Plan_cache.st_evictions;
  Alcotest.(check int) "size bounded" 3 s.Plan_cache.st_size;
  (* Replacement of an existing key does not evict. *)
  Plan_cache.add c (k 0) (entry 100.);
  (match Plan_cache.find c (k 0) with
  | Plan_cache.Hit e ->
    Alcotest.(check (option (float 0.))) "replaced" (Some 100.) e.Plan_cache.e_objective
  | _ -> Alcotest.fail "replaced entry should hit");
  Alcotest.(check int) "no extra eviction" 1 (Plan_cache.stats c).Plan_cache.st_evictions

let test_cache_epoch_invalidation () =
  let c = Plan_cache.create ~shards:2 ~capacity:8 () in
  Plan_cache.add c (key ~fp:"a" ()) (entry 1.);
  Plan_cache.add c (key ~fp:"b" ()) (entry 2.);
  Plan_cache.bump_epoch c;
  Alcotest.(check int) "epoch advanced" 1 (Plan_cache.epoch c);
  (match Plan_cache.find c (key ~fp:"a" ()) with
  | Plan_cache.Miss -> ()
  | _ -> Alcotest.fail "stale-epoch entry must miss");
  (* Fresh insertions under the new epoch hit again. *)
  Plan_cache.add c (key ~fp:"a" ()) (entry 3.);
  (match Plan_cache.find c (key ~fp:"a" ()) with
  | Plan_cache.Hit e ->
    Alcotest.(check (option (float 0.))) "new epoch entry" (Some 3.)
      e.Plan_cache.e_objective
  | _ -> Alcotest.fail "new-epoch entry should hit");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "lazily invalidated" 1 s.Plan_cache.st_invalidated

let test_cache_validation () =
  (match Plan_cache.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  (match Plan_cache.create ~shards:0 ~capacity:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 shards accepted")

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

let quick_config =
  Joinopt.Optimizer.default_config |> Joinopt.Optimizer.with_time_limit 10.

let test_scheduler_dedup_in_flight () =
  (* Eight byte-identical queries with an empty cache: exactly one cold
     solve; everyone else either waits on it in flight or (having
     arrived after publication) hits the cache it filled. *)
  let q = Workload.generate ~seed:3 ~shape:Join_graph.Star ~num_tables:7 () in
  let requests =
    List.init 8 (fun i -> { Scheduler.r_label = Printf.sprintf "q%d" i; r_query = q })
  in
  let cache = Plan_cache.create ~capacity:16 () in
  let reports, stats =
    (* Oversubscribe deliberately: waiters sleep on a condition, so extra
       domains cost nothing, and the in-flight path needs concurrency
       even on a single-core machine. *)
    Scheduler.run ~config:quick_config ~cache ~jobs:4 requests
  in
  Alcotest.(check int) "one cold solve" 1 stats.Scheduler.s_solved;
  Alcotest.(check int) "everything else shared or cached" 7
    (stats.Scheduler.s_shared + stats.Scheduler.s_cache_hits);
  Alcotest.(check int) "no failures" 0 stats.Scheduler.s_failures;
  let first = List.hd reports in
  List.iter
    (fun (r : Scheduler.report) ->
      Alcotest.(check string) "same fingerprint" first.Scheduler.o_fingerprint
        r.Scheduler.o_fingerprint;
      match (first.Scheduler.o_plan, r.Scheduler.o_plan) with
      | Some p0, Some p -> Alcotest.(check (array int)) "same order" p0.Plan.order p.Plan.order
      | _ -> Alcotest.fail "every report carries a plan")
    reports

let test_scheduler_warm_start_precision () =
  (* Solve at medium precision, then re-request at high precision: the
     second batch warm-starts from the cached plan instead of going cold. *)
  let qs =
    List.init 4 (fun i ->
        Workload.generate ~seed:(100 + i) ~shape:Join_graph.Chain ~num_tables:6 ())
  in
  let requests =
    List.mapi (fun i q -> { Scheduler.r_label = Printf.sprintf "q%d" i; r_query = q }) qs
  in
  let cache = Plan_cache.create ~capacity:16 () in
  let _, s1 = Scheduler.run ~config:quick_config ~cache requests in
  Alcotest.(check int) "first pass solves all" 4 s1.Scheduler.s_solved;
  let high_config =
    {
      quick_config with
      Joinopt.Optimizer.encoding =
        {
          quick_config.Joinopt.Optimizer.encoding with
          Joinopt.Encoding.precision = Joinopt.Thresholds.High;
        };
    }
  in
  let reports, s2 = Scheduler.run ~config:high_config ~cache requests in
  Alcotest.(check int) "second pass warm-starts all" 4 s2.Scheduler.s_warm_starts;
  Alcotest.(check int) "no cold solves" 0 s2.Scheduler.s_solved;
  List.iter
    (fun (r : Scheduler.report) ->
      Alcotest.(check bool) "warm-started source" true
        (r.Scheduler.o_source = Scheduler.Warm_started))
    reports;
  (* After a catalog-epoch bump everything goes cold again. *)
  Plan_cache.bump_epoch cache;
  let _, s3 = Scheduler.run ~config:high_config ~cache requests in
  Alcotest.(check int) "epoch bump forces cold solves" 4 s3.Scheduler.s_solved

let test_scheduler_rejects () =
  match Scheduler.synthetic_batch ~dup_fraction:1.5 ~seed:1 ~shape:Join_graph.Star ~num_tables:4 ~count:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dup_fraction > 1 accepted"

(* ------------------------------------------------------------------ *)
(* Differential: caching must never change a certified answer           *)
(* ------------------------------------------------------------------ *)

let close what a b =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b ->
    if abs_float (a -. b) > 1e-9 *. Float.max 1. (abs_float a) then
      Alcotest.failf "%s differs: %.17g vs %.17g" what a b
  | _ -> Alcotest.failf "%s present on one side only" what

let test_differential_cache_transparency () =
  (* >= 30 requests, roughly half of them permuted duplicates, across
     shapes. Cache-on (2 domains) and cache-off (sequential) must return
     identical certified plans and objectives for every request. *)
  let requests =
    List.concat_map
      (fun (shape, seed) ->
        Scheduler.synthetic_batch ~dup_fraction:0.5 ~seed ~shape ~num_tables:6
          ~count:12 ())
      [ (Join_graph.Star, 21); (Join_graph.Chain, 22); (Join_graph.Cycle, 23) ]
  in
  Alcotest.(check bool) "at least 30 queries" true (List.length requests >= 30);
  let cache = Plan_cache.create ~capacity:64 () in
  let cached_reports, cached_stats =
    Scheduler.run ~config:quick_config ~cache ~jobs:2 requests
  in
  let cold_reports, cold_stats = Scheduler.run ~config:quick_config requests in
  Alcotest.(check int) "no cached failures" 0 cached_stats.Scheduler.s_failures;
  Alcotest.(check int) "no cold failures" 0 cold_stats.Scheduler.s_failures;
  Alcotest.(check bool) "duplicates were actually served by the cache" true
    (cached_stats.Scheduler.s_cache_hits + cached_stats.Scheduler.s_shared > 0);
  Alcotest.(check int) "cold run solves every request"
    (List.length requests) cold_stats.Scheduler.s_solved;
  List.iter2
    (fun (a : Scheduler.report) (b : Scheduler.report) ->
      Alcotest.(check string) "label order preserved" a.Scheduler.o_label b.Scheduler.o_label;
      Alcotest.(check string) "fingerprints agree" a.Scheduler.o_fingerprint
        b.Scheduler.o_fingerprint;
      (match (a.Scheduler.o_plan, b.Scheduler.o_plan) with
      | Some pa, Some pb ->
        Alcotest.(check (array int))
          (a.Scheduler.o_label ^ ": join order")
          pa.Plan.order pb.Plan.order;
        if pa.Plan.operators <> pb.Plan.operators then
          Alcotest.failf "%s: operators differ" a.Scheduler.o_label
      | _ -> Alcotest.failf "%s: plan missing on one side" a.Scheduler.o_label);
      close (a.Scheduler.o_label ^ ": objective") a.Scheduler.o_objective
        b.Scheduler.o_objective;
      close (a.Scheduler.o_label ^ ": true cost") a.Scheduler.o_true_cost
        b.Scheduler.o_true_cost)
    cached_reports cold_reports

(* ------------------------------------------------------------------ *)
(* JSON emitter                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\te\x01");
        ("f", Json.Float 0.1);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
      ]
  in
  let s = Json.to_string ~indent:false j in
  Alcotest.(check string) "escapes and null for nan"
    {|{"s":"a\"b\\c\nd\te\u0001","f":0.1,"nan":null,"l":[1,true,null]}|}
    s

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_fingerprint_invariant_generated ]

let () =
  Alcotest.run "service"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "permutation invariance" `Quick test_fingerprint_invariance;
          Alcotest.test_case "sensitivity" `Quick test_fingerprint_sensitivity;
          Alcotest.test_case "plan translation round-trip" `Quick
            test_plan_translation_roundtrip;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "hit/miss/stale counters" `Quick test_cache_hit_miss_counters;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "epoch invalidation" `Quick test_cache_epoch_invalidation;
          Alcotest.test_case "validation" `Quick test_cache_validation;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "in-flight dedup" `Quick test_scheduler_dedup_in_flight;
          Alcotest.test_case "precision warm starts" `Quick
            test_scheduler_warm_start_precision;
          Alcotest.test_case "rejects bad arguments" `Quick test_scheduler_rejects;
        ] );
      ( "differential",
        [
          Alcotest.test_case "cache transparency" `Slow test_differential_cache_transparency;
        ] );
      ("json", [ Alcotest.test_case "escaping" `Quick test_json_escaping ]);
      ("properties", qcheck_tests);
    ]
