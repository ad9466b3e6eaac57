(* Tests for the persistent server: protocol validation, token-bucket
   and queue-depth admission, the degradation ladder (with honest
   provenance), crash-safe snapshot persistence (round-trip property +
   corrupted-envelope goldens), scheduler flight cleanup under injected
   aborts, and the serve_fds/serve_socket I/O loops. *)

module Query = Relalg.Query
module Query_file = Relalg.Query_file
module Plan = Relalg.Plan
module Workload = Relalg.Workload
module Join_graph = Relalg.Join_graph
module Faults = Milp.Faults
module Json = Service.Json
module Plan_cache = Service.Plan_cache
module Scheduler = Service.Scheduler
module Server = Service.Server
module Protocol = Service.Protocol

let query ?(tables = 4) seed =
  Workload.generate ~seed ~shape:Join_graph.Star ~num_tables:tables ()

let optimize_line ?client ?budget ~id q =
  Json.to_string ~indent:false
    (Json.Obj
       ([ ("op", Json.String "optimize"); ("id", Json.String id) ]
       @ (match client with Some c -> [ ("client", Json.String c) ] | None -> [])
       @ (match budget with Some b -> [ ("budget", Json.Float b) ] | None -> [])
       @ [ ("query", Json.String (Query_file.to_string q)) ]))

let parse_response line =
  match Json.parse line with
  | Ok doc -> doc
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m

let field doc name =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string ~indent:false doc)

let str_field doc name =
  match field doc name with
  | Json.String s -> s
  | v -> Alcotest.failf "field %S not a string: %s" name (Json.to_string ~indent:false v)

let status doc = str_field doc "status"

(* Admission off, fast deterministic solving — the baseline test config. *)
let test_config =
  {
    Server.default_config with
    Server.sv_rate = 0.;
    sv_burst = 0.;
    sv_default_limit = 5.;
    sv_backoff = 0.;
  }

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)
(* ------------------------------------------------------------------ *)

let test_protocol_errors () =
  let server = Server.create ~config:test_config () in
  let check_error name line =
    let doc = parse_response (Server.handle_line server line) in
    Alcotest.(check string) name "error" (status doc)
  in
  check_error "not json" "][ nope";
  check_error "not an object" "[1,2,3]";
  check_error "missing op" {|{"id":"x"}|};
  check_error "unknown op" {|{"op":"frobnicate"}|};
  check_error "op not a string" {|{"op":3}|};
  check_error "optimize without query" {|{"op":"optimize","id":"x"}|};
  check_error "query and query_file" {|{"op":"optimize","query":"t","query_file":"f"}|};
  check_error "negative budget" {|{"op":"optimize","query":"table a 1","budget":-1}|};
  check_error "budget not a number" {|{"op":"optimize","query":"table a 1","budget":"x"}|};
  check_error "malformed query text" {|{"op":"optimize","query":"table"}|};
  check_error "oversized line"
    (Printf.sprintf {|{"op":"ping","pad":"%s"}|}
       (String.make (Protocol.max_line_bytes + 1) 'x'));
  (* the id is echoed even on malformed requests when it is recoverable *)
  let doc = parse_response (Server.handle_line server {|{"id":42,"op":"frobnicate"}|}) in
  Alcotest.(check bool) "id echoed on error" true (field doc "id" = Json.Int 42);
  (* unknown fields are ignored, valid ops answered *)
  let doc =
    parse_response (Server.handle_line server {|{"op":"ping","id":"p","future":true}|})
  in
  Alcotest.(check string) "ping ok" "ok" (status doc)

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)
(* ------------------------------------------------------------------ *)

let test_rate_admission () =
  (* rate 0, burst 3: exactly three requests per client, ever. *)
  let server =
    Server.create ~config:{ test_config with Server.sv_rate = 0.; sv_burst = 3. } ()
  in
  let q = query 1 in
  let send i client =
    let line = optimize_line ~client ~id:(Printf.sprintf "%s-%d" client i) q in
    parse_response (Server.handle_line server line)
  in
  for i = 1 to 3 do
    Alcotest.(check string)
      (Printf.sprintf "alice %d admitted" i)
      "ok"
      (status (send i "alice"))
  done;
  let doc = send 4 "alice" in
  Alcotest.(check string) "alice 4 rejected" "rejected" (status doc);
  Alcotest.(check string) "overload reason" "overload:rate" (str_field doc "reason");
  (* a different client has its own bucket *)
  Alcotest.(check string) "bob admitted" "ok" (status (send 1 "bob"));
  (* non-optimize ops bypass the bucket *)
  let doc = parse_response (Server.handle_line server {|{"op":"stats","client":"alice"}|}) in
  Alcotest.(check string) "stats bypasses bucket" "ok" (status doc)

let test_queue_admission () =
  let server = Server.create ~config:{ test_config with Server.sv_max_queue = 2 } () in
  let q = query 2 in
  let lines = List.init 5 (fun i -> optimize_line ~id:(Printf.sprintf "b-%d" i) q) in
  let responses = Server.handle_batch server lines in
  Alcotest.(check int) "one response per line" 5 (List.length responses);
  List.iteri
    (fun i r ->
      let doc = parse_response r in
      Alcotest.(check string)
        (Printf.sprintf "line %d id echoed" i)
        (Printf.sprintf "b-%d" i)
        (str_field doc "id");
      if i < 2 then Alcotest.(check string) "admitted" "ok" (status doc)
      else begin
        Alcotest.(check string) "rejected" "rejected" (status doc);
        Alcotest.(check string) "queue reason" "overload:queue" (str_field doc "reason")
      end)
    responses

(* A malformed-input storm mixed with valid and over-limit requests:
   every line gets exactly one definitive response, ids are echoed, and
   nothing degraded is ever labeled as an exact answer. *)
let test_mixed_storm () =
  let server = Server.create ~config:test_config () in
  let q = query 3 in
  let lines =
    [
      optimize_line ~id:"ok-1" q;
      "garbage {{{";
      {|{"op":"optimize","id":"bad-budget","query":"table a 1","budget":-5}|};
      optimize_line ~id:"ok-2" ~budget:1e9 q (* clamped to max-limit, not rejected *);
      {|{"op":"nonsense","id":"bad-op"}|};
      optimize_line ~id:"ok-3" q;
    ]
  in
  let responses = Server.handle_batch server lines in
  Alcotest.(check int) "every line answered" (List.length lines) (List.length responses);
  List.iter
    (fun r ->
      let doc = parse_response r in
      let st = status doc in
      Alcotest.(check bool)
        "definitive status" true
        (List.mem st [ "ok"; "rejected"; "error" ]);
      if st = "ok" && Json.member "degraded" doc <> None then begin
        let degraded = field doc "degraded" = Json.Bool true in
        let prov = str_field doc "provenance" in
        let tagged =
          String.length prov >= 9 && String.sub prov 0 9 = "degraded:"
        in
        Alcotest.(check bool) "degraded iff tagged" degraded tagged
      end)
    responses;
  (* the three well-formed optimizes got real answers *)
  let ok_ids =
    List.filter_map
      (fun r ->
        let doc = parse_response r in
        if status doc = "ok" && Json.member "plan" doc <> None then
          Some (str_field doc "id")
        else None)
      responses
  in
  Alcotest.(check (list string)) "well-formed served" [ "ok-1"; "ok-2"; "ok-3" ] ok_ids

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                   *)
(* ------------------------------------------------------------------ *)

let test_degradation_and_recovery () =
  let server =
    Server.create
      ~config:
        {
          test_config with
          Server.sv_retries = 1;
          sv_degrade_after = 1;
          sv_probe_every = 2;
        }
      ()
  in
  let send q id =
    parse_response (Server.handle_line server (optimize_line ~id q))
  in
  (* Every solve attempt aborts: the request must still be answered —
     honestly degraded, from the greedy heuristic. *)
  let d1 =
    Faults.with_plan
      { Faults.none with Faults.f_seed = 21; f_abort_every = 1 }
      (fun () -> send (query 10) "d1")
  in
  Alcotest.(check string) "degraded answer is ok" "ok" (status d1);
  Alcotest.(check bool) "tagged degraded" true (field d1 "degraded" = Json.Bool true);
  Alcotest.(check string) "heuristic provenance" "degraded:greedy" (str_field d1 "provenance");
  Alcotest.(check string) "heuristic source" "degraded-heuristic" (str_field d1 "source");
  Alcotest.(check string) "server entered degraded mode" "degraded" (str_field d1 "mode");
  (* Faults are gone, but in degraded mode the next (non-probe) request
     is still answered from the ladder without touching the MILP. *)
  let d2 = send (query 11) "d2" in
  Alcotest.(check bool) "still degraded" true (field d2 "degraded" = Json.Bool true);
  (* The second degraded-mode request is a probe; it completes cleanly
     and recovers the server. *)
  let d3 = send (query 12) "d3" in
  Alcotest.(check string) "probe answered exactly" "solved" (str_field d3 "source");
  Alcotest.(check bool) "probe not degraded" true (field d3 "degraded" = Json.Bool false);
  Alcotest.(check string) "recovered" "exact" (str_field d3 "mode");
  (* Degraded answers were never cached: re-asking d2's query after
     recovery must solve it, not hit the cache. *)
  let d4 = send (query 11) "d4" in
  Alcotest.(check string) "degraded answer was not cached" "solved" (str_field d4 "source");
  (* ... and asking once more is a genuine hit. *)
  let d5 = send (query 11) "d5" in
  Alcotest.(check string) "exact answer was cached" "cache-hit" (str_field d5 "source")

(* Retries absorb a one-shot transient failure without degrading. *)
let test_retry_recovers () =
  let server =
    Server.create ~config:{ test_config with Server.sv_retries = 2; sv_degrade_after = 5 } ()
  in
  let r =
    (* every 2nd guarded attempt aborts: attempt 1 (scheduler-independent
       count) dies, the retry succeeds *)
    Faults.with_plan
      { Faults.none with Faults.f_seed = 22; f_abort_every = 2 }
      (fun () ->
        parse_response (Server.handle_line server (optimize_line ~id:"r1" (query 13))))
  in
  Alcotest.(check string) "answered" "ok" (status r);
  Alcotest.(check bool) "not degraded" true (field r "degraded" = Json.Bool false);
  Alcotest.(check string) "exact source" "solved" (str_field r "source")

(* ------------------------------------------------------------------ *)
(* Snapshot persistence                                                 *)
(* ------------------------------------------------------------------ *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_kill_and_restart () =
  let path = tmp_path "joinopt_test_snapshot.ckpt" in
  if Sys.file_exists path then Sys.remove path;
  let config =
    { test_config with Server.sv_snapshot_path = Some path; sv_snapshot_every = 1 }
  in
  let qs = [ query 30; query 31; query ~tables:5 32 ] in
  let server_a = Server.create ~config () in
  let answers_a =
    List.mapi
      (fun i q ->
        parse_response
          (Server.handle_line server_a (optimize_line ~id:(Printf.sprintf "a-%d" i) q)))
      qs
  in
  List.iter (fun d -> Alcotest.(check string) "solved in A" "ok" (status d)) answers_a;
  (* snapshot_every = 1: the snapshot is already on disk; server A is
     simply dropped (a SIGKILL has no goodbye). *)
  Alcotest.(check bool) "snapshot exists" true (Sys.file_exists path);
  let server_b = Server.create ~config () in
  List.iteri
    (fun i q ->
      let a = List.nth answers_a i in
      let b =
        parse_response
          (Server.handle_line server_b (optimize_line ~id:(Printf.sprintf "b-%d" i) q))
      in
      Alcotest.(check string) "warm hit after restart" "cache-hit" (str_field b "source");
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s byte-identical after restart" f)
            true
            (field a f = field b f))
        [ "plan"; "objective"; "bound"; "true_cost"; "provenance" ])
    qs;
  Sys.remove path

let test_corrupted_snapshot_cold_start () =
  List.iter
    (fun (fixture, expect) ->
      let path = Filename.concat "golden" fixture in
      (* the envelope refuses it... *)
      (match Milp.Checkpoint.load ~path ~tag:Plan_cache.snapshot_tag with
      | Ok (_ : (Plan_cache.key * Plan_cache.entry) list) ->
        Alcotest.failf "%s loaded as a valid snapshot" fixture
      | Error reason ->
        Alcotest.(check bool)
          (Printf.sprintf "%s rejected for the right reason (%s)" fixture reason)
          true
          (String.length reason >= String.length expect
          && String.sub reason 0 (String.length expect) = expect));
      (* ...load_into reports it without touching the cache... *)
      let cache = Plan_cache.create ~capacity:8 () in
      (match Plan_cache.load_into cache ~path with
      | Ok n -> Alcotest.failf "%s restored %d entries" fixture n
      | Error _ -> ());
      Alcotest.(check int)
        "cache stayed cold" 0 (Plan_cache.stats cache).Plan_cache.st_size;
      (* ...and a server starting on it comes up cold, serving fine. *)
      let server =
        Server.create ~config:{ test_config with Server.sv_snapshot_path = Some path } ()
      in
      let d = parse_response (Server.handle_line server (optimize_line ~id:"c" (query 33))) in
      Alcotest.(check string) "serves after damaged snapshot" "ok" (status d);
      Alcotest.(check string) "served exactly" "solved" (str_field d "source"))
    [
      ("snapshot_truncated.ckpt", "truncated");
      ("snapshot_bit_flip.ckpt", "checksum mismatch");
      ("snapshot_wrong_tag.ckpt", "tag mismatch");
    ]

(* A snapshot written under injected corruption must be refused at load
   (cold cache), never crash. *)
let test_fault_injected_snapshot () =
  let path = tmp_path "joinopt_test_snapshot_corrupt.ckpt" in
  let config =
    { test_config with Server.sv_snapshot_path = Some path; sv_snapshot_every = 0 }
  in
  let server = Server.create ~config () in
  ignore (Server.handle_line server (optimize_line ~id:"s" (query 34)));
  Faults.with_plan
    { Faults.none with Faults.f_seed = 23; f_snapshot_corrupt = 1. }
    (fun () ->
      match Server.save_snapshot server with
      | Ok () -> ()
      | Error m -> Alcotest.failf "snapshot write failed outright: %s" m);
  (match Plan_cache.load_into (Plan_cache.create ~capacity:8 ()) ~path with
  | Ok n -> Alcotest.failf "corrupted snapshot restored %d entries" n
  | Error _ -> ());
  let server_b = Server.create ~config () in
  let d = parse_response (Server.handle_line server_b (optimize_line ~id:"s2" (query 34))) in
  Alcotest.(check string) "cold start after corrupt write" "solved" (str_field d "source");
  Sys.remove path

(* Property: snapshot/restore round-trips the cache's current-epoch
   contents through the envelope, for any cache population. *)
let snapshot_roundtrip_prop =
  QCheck.Test.make ~name:"plan_cache snapshot/restore round-trip" ~count:30
    QCheck.(pair (int_bound 40) (int_bound 1000))
    (fun (n, seed) ->
      let state = Random.State.make [| seed; n; 0xca5e |] in
      let path = tmp_path (Printf.sprintf "joinopt_prop_snap_%d_%d.ckpt" n seed) in
      let cache = Plan_cache.create ~capacity:64 () in
      let keys =
        List.init n (fun i ->
            let key =
              {
                Plan_cache.k_fingerprint = Printf.sprintf "fp-%d-%d" seed i;
                k_cost = (if i mod 2 = 0 then "hash" else "cout");
                k_precision = "medium";
              }
            in
            let tables = 2 + Random.State.int state 6 in
            let entry =
              {
                Plan_cache.e_plan = Plan.of_order (Array.init tables (fun t -> t));
                e_objective =
                  (if Random.State.bool state then Some (Random.State.float state 1e6)
                   else None);
                e_bound = Random.State.float state 1e3;
                e_true_cost = Some (Random.State.float state 1e6);
                e_provenance = "milp-certified";
                e_precision = "medium";
                e_decomposed = false;
              }
            in
            Plan_cache.add cache key entry;
            (key, entry))
      in
      (* Sharded LRU: a skewed shard may already have evicted, so the
         ground truth is what the cache holds *now*, not all n inserts. *)
      let live =
        List.filter
          (fun (key, _) ->
            match Plan_cache.find cache key with Plan_cache.Hit _ -> true | _ -> false)
          keys
      in
      (match Plan_cache.save cache ~path with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "save failed: %s" m);
      let fresh = Plan_cache.create ~capacity:64 () in
      (match Plan_cache.load_into fresh ~path with
      | Ok restored ->
        if restored <> List.length live then
          QCheck.Test.fail_reportf "restored %d of %d live entries" restored
            (List.length live)
      | Error m -> QCheck.Test.fail_reportf "load failed: %s" m);
      Sys.remove path;
      List.for_all
        (fun (key, entry) ->
          match Plan_cache.find fresh key with
          | Plan_cache.Hit e -> e = entry
          | _ -> false)
        live)

(* ------------------------------------------------------------------ *)
(* Scheduler flight cleanup                                             *)
(* ------------------------------------------------------------------ *)

(* Eight copies of one query, every guarded handler aborting: the flight
   owner dies before publishing, and without the cleanup path every
   deduplicated waiter would sleep forever on the flight's condition
   variable. The batch must complete with a definitive error per
   request. *)
let test_flight_cleanup_on_abort () =
  let q = query 40 in
  let requests =
    List.init 8 (fun i -> { Scheduler.r_label = Printf.sprintf "dup-%d" i; r_query = q })
  in
  let cache = Plan_cache.create ~capacity:16 () in
  let reports, stats =
    Faults.with_plan
      { Faults.none with Faults.f_seed = 24; f_abort_every = 1 }
      (fun () -> Scheduler.run ~cache ~jobs:2 requests)
  in
  Alcotest.(check int) "every request reported" 8 (List.length reports);
  Alcotest.(check int) "every request failed definitively" 8 stats.Scheduler.s_failures;
  List.iter
    (fun r ->
      Alcotest.(check bool) "no plan" true (r.Scheduler.o_plan = None);
      Alcotest.(check bool)
        "error provenance" true
        (String.length r.Scheduler.o_provenance >= 6
        && String.sub r.Scheduler.o_provenance 0 6 = "error:"))
    reports;
  (* the fault plan fired and nothing leaked into the cache *)
  Alcotest.(check int)
    "no aborted entry cached" 0 (Plan_cache.stats cache).Plan_cache.st_insertions

(* ------------------------------------------------------------------ *)
(* I/O loops                                                            *)
(* ------------------------------------------------------------------ *)

let read_lines_until_eof fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> String.trim l <> "")

let test_serve_fds () =
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let q = query 50 in
  let requests =
    [
      {|{"op":"ping","id":"p"}|};
      optimize_line ~id:"f1" q;
      "malformed";
      optimize_line ~id:"f2" q;
    ]
  in
  (* Small request volume: everything fits in the pipe buffers, so the
     loop can be driven to EOF from a single thread. *)
  let payload = String.concat "\n" requests ^ "\n" in
  let b = Bytes.of_string payload in
  let written = Unix.write in_w b 0 (Bytes.length b) in
  Alcotest.(check int) "request batch fits the pipe" (Bytes.length b) written;
  Unix.close in_w;
  let server = Server.create ~config:test_config () in
  Server.serve_fds server in_r out_w;
  Unix.close out_w;
  let responses = read_lines_until_eof out_r in
  Unix.close in_r;
  Unix.close out_r;
  Alcotest.(check int) "every line answered over fds" 4 (List.length responses);
  let by_id id =
    List.find_map
      (fun r ->
        let doc = parse_response r in
        match Json.member "id" doc with
        | Some (Json.String s) when s = id -> Some doc
        | _ -> None)
      responses
  in
  (match by_id "f1" with
  | Some doc -> Alcotest.(check string) "f1 solved" "solved" (str_field doc "source")
  | None -> Alcotest.fail "no response for f1");
  (match by_id "f2" with
  | Some doc -> Alcotest.(check string) "f2 cache hit" "cache-hit" (str_field doc "source")
  | None -> Alcotest.fail "no response for f2")

let test_serve_socket () =
  let path = tmp_path (Printf.sprintf "joinopt_test_%d.sock" (Unix.getpid ())) in
  let server = Server.create ~config:test_config () in
  let domain = Domain.spawn (fun () -> Server.serve_socket server ~path) in
  (* wait for the socket to appear *)
  let rec await n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  let q = query 51 in
  let requests =
    [ {|{"op":"ping","id":"s0"}|}; optimize_line ~id:"s1" q; {|{"op":"shutdown","id":"s2"}|} ]
  in
  let payload = String.concat "\n" requests ^ "\n" in
  let b = Bytes.of_string payload in
  ignore (Unix.write sock b 0 (Bytes.length b));
  let responses = read_lines_until_eof sock in
  Unix.close sock;
  Domain.join domain;
  Alcotest.(check int) "three responses over the socket" 3 (List.length responses);
  List.iter
    (fun r -> Alcotest.(check string) "ok over socket" "ok" (status (parse_response r)))
    responses;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Concurrent execution and supervision                                 *)
(* ------------------------------------------------------------------ *)

let int_at path doc =
  let rec go doc = function
    | [] -> ( match doc with Json.Int n -> n | _ -> Alcotest.failf "not an int at %s" (String.concat "." path))
    | k :: rest -> (
      match Json.member k doc with
      | Some d -> go d rest
      | None -> Alcotest.failf "stats lack %S" k)
  in
  go doc path

let supervision_stat server name = int_at [ "supervision"; name ] (Server.stats_json server)

(* One response per line, matched ids, mixed valid/malformed/over-budget,
   all through the real bounded-queue + worker-domain executor. *)
let test_stream_interleaving () =
  let server = Server.create ~config:test_config () in
  let qa = query 60 and qb = query 61 and qc = query 62 in
  let lines =
    [
      optimize_line ~id:"i-0" qa;
      "this is not json";
      optimize_line ~id:"i-2" qb;
      {|{"op":"ping","id":"i-3"}|};
      optimize_line ~id:"i-4" qa;
      (* duplicate: cache hit *)
      optimize_line ~id:"i-5" ~budget:5000. qc;
      (* over the cap: clamped, served *)
      {|{"op":"nonsense","id":"i-6"}|};
      optimize_line ~id:"i-7" qb;
      (* duplicate *)
      {|{"op":"ping","id":"i-8"}|};
    ]
  in
  let responses = Server.handle_stream server ~jobs:3 lines in
  Alcotest.(check int)
    "one response per line" (List.length lines)
    (List.length responses);
  List.iteri
    (fun i r ->
      let doc = parse_response r in
      let expect_error = i = 1 || i = 6 in
      Alcotest.(check string)
        (Printf.sprintf "line %d status" i)
        (if expect_error then "error" else "ok")
        (status doc);
      if i <> 1 then
        (* every parseable line's id is echoed at its own index *)
        Alcotest.(check bool)
          (Printf.sprintf "line %d id echoed" i)
          true
          (field doc "id" = Json.String (Printf.sprintf "i-%d" i)))
    responses;
  (* duplicates race their originals across workers (the server has no
     in-flight dedup), so either source is legitimate — but never an
     error or a drop *)
  let hit i =
    let doc = parse_response (List.nth responses i) in
    str_field doc "source"
  in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "duplicate %d served" i)
        true
        (List.mem (hit i) [ "cache-hit"; "solved" ]))
    [ 4; 7 ];
  (* the counters of a clean stream balance: every accepted optimize is
     answered once, by the solver or the cache, and the watchdog never
     fires *)
  let stats = Server.stats_json server in
  let stat path = int_at path stats in
  Alcotest.(check int) "optimizes accepted" 5 (stat [ "admission"; "accepted" ]);
  Alcotest.(check int) "bad lines counted malformed" 2 (stat [ "admission"; "malformed" ]);
  Alcotest.(check int)
    "accepted optimizes answered once" 5
    (stat [ "answers"; "solved" ] + stat [ "answers"; "cache_hits" ]);
  Alcotest.(check int) "no watchdog kill" 0 (stat [ "supervision"; "watchdog_kills" ]);
  Alcotest.(check int) "no late response" 0 (stat [ "supervision"; "late_responses" ])

(* The regression the refactor exists for: an injected per-request stall
   used to freeze the whole select loop; now it burns one worker while
   the others keep answering, so wall clock stays near stall * ceil(n /
   jobs) instead of stall * n. *)
let test_stall_isolation () =
  let server = Server.create ~config:test_config () in
  let lines = List.init 6 (fun i -> Printf.sprintf {|{"op":"ping","id":"st-%d"}|} i) in
  let t0 = Milp.Budget.now () in
  let responses =
    Faults.with_plan
      { Faults.none with Faults.f_request_stall = 0.2 }
      (fun () -> Server.handle_stream server ~jobs:3 lines)
  in
  let elapsed = Milp.Budget.now () -. t0 in
  List.iter
    (fun r -> Alcotest.(check string) "stalled ping answered" "ok" (status (parse_response r)))
    responses;
  (* serial execution would need 6 * 0.2 = 1.2s; 3 workers need ~0.4s *)
  Alcotest.(check bool)
    (Printf.sprintf "stalls overlap across workers (%.2fs)" elapsed)
    true (elapsed < 0.9)

(* A wedged solve — asleep between cooperative cancellation checks — is
   soft-cancelled at its deadline and force-answered one grace later:
   an honest error, never silence, and the late result is dropped. *)
let test_watchdog_kills_wedged () =
  let server =
    Server.create ~config:{ test_config with Server.sv_watchdog_grace = 0.05 } ()
  in
  let line = optimize_line ~id:"wedged" ~budget:0.05 (query 63) in
  let responses =
    Faults.with_plan
      { Faults.none with Faults.f_wedge_after = 1; f_wedge_seconds = 2. }
      (fun () -> Server.handle_stream server ~jobs:1 [ line ])
  in
  (match responses with
  | [ r ] ->
    let doc = parse_response r in
    Alcotest.(check string) "watchdog answers with an error" "error" (status doc);
    let reason = str_field doc "reason" in
    Alcotest.(check bool)
      (Printf.sprintf "reason names the watchdog: %s" reason)
      true
      (String.length reason >= 8 && String.sub reason 0 8 = "watchdog")
  | rs -> Alcotest.failf "expected exactly one response, got %d" (List.length rs));
  Alcotest.(check bool)
    "budget was soft-cancelled first" true
    (supervision_stat server "watchdog_cancels" >= 1);
  Alcotest.(check bool)
    "kill recorded" true
    (supervision_stat server "watchdog_kills" >= 1)

(* A shutdown op inside the stream drains the executor: lines queued
   behind it are answered [rejected:shutdown], never executed, never
   dropped. *)
let test_stream_shutdown_drain () =
  let server = Server.create ~config:test_config () in
  let q = query 64 in
  let lines =
    [
      optimize_line ~id:"d-0" q;
      {|{"op":"shutdown","id":"d-1"}|};
      optimize_line ~id:"d-2" q;
      optimize_line ~id:"d-3" q;
    ]
  in
  let responses = Server.handle_stream server ~jobs:1 lines in
  (match responses with
  | [ a; s; b; c ] ->
    Alcotest.(check string) "pre-shutdown optimize served" "ok" (status (parse_response a));
    Alcotest.(check string) "shutdown acknowledged" "ok" (status (parse_response s));
    List.iter
      (fun r ->
        let doc = parse_response r in
        Alcotest.(check string) "queued-behind-shutdown rejected" "rejected" (status doc);
        Alcotest.(check string) "shutdown reason" "shutdown" (str_field doc "reason"))
      [ b; c ]
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs));
  Alcotest.(check int)
    "both backlog lines counted" 2
    (int_at [ "drain"; "rejected_shutdown" ] (Server.stats_json server))

(* ------------------------------------------------------------------ *)
(* Socket transport under concurrency                                   *)
(* ------------------------------------------------------------------ *)

type reader = { rd_fd : Unix.file_descr; rd_buf : Buffer.t }

let reader fd = { rd_fd = fd; rd_buf = Buffer.create 256 }

(* Read one response line, blocking up to [timeout] seconds. *)
let read_response ?(timeout = 20.) rd =
  let chunk = Bytes.create 4096 in
  let deadline = Milp.Budget.now () +. timeout in
  let rec take () =
    let data = Buffer.contents rd.rd_buf in
    match String.index_opt data '\n' with
    | Some i ->
      Buffer.clear rd.rd_buf;
      Buffer.add_substring rd.rd_buf data (i + 1) (String.length data - i - 1);
      Some (String.sub data 0 i)
    | None ->
      if Milp.Budget.now () > deadline then None
      else begin
        match Unix.select [ rd.rd_fd ] [] [] 0.25 with
        | [], _, _ -> take ()
        | _ -> (
          match Unix.read rd.rd_fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes rd.rd_buf chunk 0 n;
            take ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ())
      end
  in
  take ()

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let start_socket_server config =
  let path =
    tmp_path (Printf.sprintf "joinopt_test_%d_%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let server = Server.create ~config () in
  let domain = Domain.spawn (fun () -> Server.serve_socket server ~path) in
  let rec await n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  (server, path, domain)

let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  sock

(* Per-connection response order under [sv_jobs > 1]: fast pings queued
   behind a slow solve still come back in arrival order — the ordered
   sink holds early finishers until their turn. *)
let test_socket_concurrent_ordering () =
  let server, path, domain =
    start_socket_server { test_config with Server.sv_jobs = 3 }
  in
  let q = query 65 in
  let ids = [ "o-0"; "o-1"; "o-2"; "o-3"; "o-4"; "o-5" ] in
  let sock = connect path in
  let rd = reader sock in
  send_line sock (optimize_line ~id:"o-0" q);
  send_line sock {|{"op":"ping","id":"o-1"}|};
  send_line sock {|{"op":"ping","id":"o-2"}|};
  send_line sock "garbage that is not json";
  send_line sock (optimize_line ~id:"o-4" q);
  send_line sock {|{"op":"ping","id":"o-5"}|};
  let got =
    List.map
      (fun _ ->
        match read_response rd with
        | Some r -> parse_response r
        | None -> Alcotest.fail "response timed out")
      ids
  in
  let got_ids =
    List.map
      (fun doc -> match Json.member "id" doc with Some (Json.String s) -> s | _ -> "<null>")
      got
  in
  (* the malformed line (index 3) echoes a null id *)
  Alcotest.(check (list string))
    "responses in arrival order"
    [ "o-0"; "o-1"; "o-2"; "<null>"; "o-4"; "o-5" ]
    got_ids;
  send_line sock {|{"op":"shutdown","id":"bye"}|};
  ignore (read_response rd);
  Unix.close sock;
  Domain.join domain;
  ignore server

(* Beyond [sv_max_conns] simultaneous connections the server answers
   [rejected:overload:conns] and closes — an explicit refusal, never a
   silent hang. *)
let test_max_conns () =
  let server, path, domain =
    start_socket_server { test_config with Server.sv_max_conns = 2 }
  in
  let c1 = connect path and c2 = connect path in
  let r1 = reader c1 and r2 = reader c2 in
  send_line c1 {|{"op":"ping","id":"c1"}|};
  send_line c2 {|{"op":"ping","id":"c2"}|};
  (match (read_response r1, read_response r2) with
  | Some _, Some _ -> ()
  | _ -> Alcotest.fail "first two connections not served");
  let c3 = connect path in
  (match read_response (reader c3) with
  | Some r ->
    let doc = parse_response r in
    Alcotest.(check string) "third connection rejected" "rejected" (status doc);
    Alcotest.(check string) "conns reason" "overload:conns" (str_field doc "reason")
  | None -> Alcotest.fail "third connection got no refusal");
  Unix.close c3;
  Alcotest.(check bool)
    "refusal counted" true
    (supervision_stat server "connections_rejected" >= 1);
  send_line c1 {|{"op":"shutdown","id":"bye"}|};
  ignore (read_response r1);
  Unix.close c1;
  Unix.close c2;
  Domain.join domain

(* A second server must fail loudly when the socket path has a live
   listener, and leave the incumbent undisturbed. *)
let test_socket_takeover_refused () =
  let server, path, domain = start_socket_server test_config in
  let second = Server.create ~config:test_config () in
  (match Server.serve_socket second ~path with
  | () -> Alcotest.fail "second server silently took over the socket"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "refusal names the path: %s" msg)
      true
      (String.length msg > 0));
  (* the incumbent still serves *)
  let sock = connect path in
  let rd = reader sock in
  send_line sock {|{"op":"ping","id":"alive"}|};
  (match read_response rd with
  | Some r -> Alcotest.(check string) "incumbent alive after takeover attempt" "ok" (status (parse_response r))
  | None -> Alcotest.fail "incumbent stopped serving");
  send_line sock {|{"op":"shutdown","id":"bye"}|};
  ignore (read_response rd);
  Unix.close sock;
  Domain.join domain;
  ignore server

(* A client that stops reading while answers pile up is evicted once its
   write buffer passes [sv_max_write_buf] — the server never blocks on
   it and never buffers without bound. *)
let test_slow_client_eviction () =
  let server, path, domain =
    start_socket_server
      {
        test_config with
        Server.sv_jobs = 2;
        sv_max_queue = 2048;
        sv_max_write_buf = 4096;
      }
  in
  let slow = connect path in
  (* ~600 stats responses (a few KB each) overflow the kernel socket
     buffer plus the 4KB write bound; the slow client reads none. The
     server may evict mid-burst and close the socket under us — that is
     the behavior under test, so a write failure just ends the burst. *)
  (try
     for i = 0 to 599 do
       send_line slow (Printf.sprintf {|{"op":"stats","id":"s-%d"}|} i)
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  let probe = connect path in
  let rd = reader probe in
  let deadline = Milp.Budget.now () +. 20. in
  let rec await_eviction i =
    if Milp.Budget.now () > deadline then Alcotest.fail "slow client never evicted"
    else begin
      send_line probe (Printf.sprintf {|{"op":"stats","id":"p-%d"}|} i);
      match read_response rd with
      | None -> Alcotest.fail "probe connection starved"
      | Some r ->
        let doc = parse_response r in
        let evictions =
          match Json.member "stats" doc with
          | Some stats -> int_at [ "supervision"; "slow_client_evictions" ] stats
          | None -> 0
        in
        if evictions < 1 then begin
          Unix.sleepf 0.1;
          await_eviction (i + 1)
        end
    end
  in
  await_eviction 0;
  Unix.close slow;
  send_line probe {|{"op":"shutdown","id":"bye"}|};
  ignore (read_response rd);
  Unix.close probe;
  Domain.join domain;
  ignore server

(* ------------------------------------------------------------------ *)
(* Decomposition                                                        *)
(* ------------------------------------------------------------------ *)

(* A request's "decompose":"force" field routes even a small query
   through the partitioned pipeline; the answer and its cache entry are
   tagged decomposed:true, and the honest-provenance gate never serves
   that entry to a request expecting a monolithic solve. *)
let test_decompose_protocol () =
  let server = Server.create ~config:test_config () in
  let q = query ~tables:8 41 in
  let send ?decompose id =
    let line =
      Json.to_string ~indent:false
        (Json.Obj
           ([ ("op", Json.String "optimize"); ("id", Json.String id) ]
           @ (match decompose with
             | Some d -> [ ("decompose", Json.String d) ]
             | None -> [])
           @ [ ("query", Json.String (Query_file.to_string q)) ]))
    in
    parse_response (Server.handle_line server line)
  in
  let forced = send ~decompose:"force" "dc1" in
  Alcotest.(check string) "forced decomposition ok" "ok" (status forced);
  Alcotest.(check string) "decomposed source" "decomposed" (str_field forced "source");
  Alcotest.(check bool)
    "tagged decomposed" true
    (field forced "decomposed" = Json.Bool true);
  let prov = str_field forced "provenance" in
  Alcotest.(check bool)
    "decomposed provenance" true
    (String.length prov >= 11 && String.sub prov 0 11 = "decomposed:");
  (* an unknown policy string is rejected at parse time *)
  let bad =
    parse_response
      (Server.handle_line server
         {|{"op":"optimize","id":"dc-bad","query":"table a 1","decompose":"maybe"}|})
  in
  Alcotest.(check string) "bad policy is an error" "error" (status bad);
  (* The decomposed answer was cached, but a plain request for the same
     query must not be served from it: the gate forces a fresh exact
     solve instead of mislabeling a stitched plan as monolithic. *)
  let plain = send "dc2" in
  Alcotest.(check string) "gate forces exact solve" "solved" (str_field plain "source");
  Alcotest.(check bool)
    "exact answer not decomposed" true
    (field plain "decomposed" = Json.Bool false);
  (* the exact entry overwrote the decomposed one and now hits... *)
  let again = send "dc3" in
  Alcotest.(check string) "exact answer cached" "cache-hit" (str_field again "source");
  (* ...and an exact certified answer may serve a decomposing request *)
  let forced2 = send ~decompose:"force" "dc4" in
  Alcotest.(check string)
    "exact entry serves decomposing request" "cache-hit"
    (str_field forced2 "source");
  Alcotest.(check bool)
    "served answer is the exact one" true
    (field forced2 "decomposed" = Json.Bool false);
  (* stats surface the decomposition counters *)
  let stats = parse_response (Server.handle_line server {|{"op":"stats"}|}) in
  let n = int_at [ "stats"; "decomposition"; "queries" ] stats in
  Alcotest.(check bool) "decomposition counter advanced" true (n >= 1)

(* ------------------------------------------------------------------ *)
(* Front ends                                                           *)
(* ------------------------------------------------------------------ *)

(* The same request sequence through both front ends — the batch
   scheduler and the server — each with its own cache, under every
   warm-start mode. The sequence covers cold solves, a permuted
   duplicate (cache hit), a stale-precision pair (warm start), a
   [Dc_force] request (decomposed), an exact entry serving a decomposing
   request, and the honest-provenance gate refusing a decomposed entry
   to an exact request. Both must give every request the same plan,
   objective, provenance and decomposed flag. *)
let test_front_ends_agree () =
  let base seed tables = query ~tables seed in
  let q1 = base 71 5 and q2 = base 72 4 and q4 = base 74 8 in
  let q1' = Query.permute_tables q1 ~perm:[| 4; 2; 0; 3; 1 |] in
  let phases =
    Joinopt.Thresholds.
      [
        (Medium, Joinopt.Optimizer.Dc_auto, [ q1; q2; q1' ]);
        (High, Joinopt.Optimizer.Dc_auto, [ q1; q2 ]);
        (Medium, Joinopt.Optimizer.Dc_force, [ q4; q1 ]);
        (Medium, Joinopt.Optimizer.Dc_auto, [ q4 ]);
      ]
  in
  let limit = test_config.Server.sv_default_limit in
  List.iter
    (fun warm ->
      let mode = Protocol.warm_to_string warm in
      let server = Server.create ~config:test_config () in
      let cache = Plan_cache.create ~capacity:test_config.Server.sv_cache_capacity () in
      List.iteri
        (fun phase (precision, policy, queries) ->
          let config =
            { Joinopt.Optimizer.default_config with
              Joinopt.Optimizer.cost = test_config.Server.sv_cost }
            |> Joinopt.Optimizer.with_precision precision
            |> Joinopt.Optimizer.with_decomp
                 { test_config.Server.sv_decomp with Joinopt.Optimizer.dc_policy = policy }
            |> Joinopt.Optimizer.with_time_limit limit
          in
          let requests =
            List.mapi
              (fun i q -> { Scheduler.r_label = Printf.sprintf "p%d-%d" phase i; r_query = q })
              queries
          in
          let reports, _ = Scheduler.run ~config ~cache ~warm requests in
          let lines =
            List.map
              (fun r ->
                Json.to_string ~indent:false
                  (Json.Obj
                     [
                       ("op", Json.String "optimize");
                       ("id", Json.String r.Scheduler.r_label);
                       ( "precision",
                         Json.String (Joinopt.Thresholds.precision_to_string precision) );
                       ( "decompose",
                         Json.String (Joinopt.Optimizer.decomp_policy_to_string policy) );
                       ("warm_start", Json.String mode);
                       ("query", Json.String (Query_file.to_string r.Scheduler.r_query));
                     ]))
              requests
          in
          let responses = List.map parse_response (Server.handle_batch server lines) in
          List.iter2
            (fun (r : Scheduler.report) (q, doc) ->
              let what f = Printf.sprintf "%s %s: %s" mode r.Scheduler.o_label f in
              Alcotest.(check string) (what "status") "ok" (status doc);
              let plan =
                match r.Scheduler.o_plan with
                | Some p -> Format.asprintf "%a" (Plan.pp_with_query q) p
                | None -> Alcotest.failf "%s" (what "batch produced no plan")
              in
              Alcotest.(check string) (what "plan") plan (str_field doc "plan");
              Alcotest.(check (option (float 0.)))
                (what "objective") r.Scheduler.o_objective
                (Json.to_float_opt (field doc "objective"));
              Alcotest.(check string)
                (what "provenance") r.Scheduler.o_provenance (str_field doc "provenance");
              Alcotest.(check bool)
                (what "decomposed") r.Scheduler.o_decomposed
                (field doc "decomposed" = Json.Bool true);
              Alcotest.(check bool)
                (what "cache hit") (r.Scheduler.o_source = Scheduler.Cache_hit)
                (str_field doc "source" = "cache-hit");
              (* the stale-precision pair warm-starts exactly in cache mode *)
              Alcotest.(check bool)
                (what "warm start") (warm = Protocol.Warm_cache && phase = 1)
                (r.Scheduler.o_source = Scheduler.Warm_started))
            reports
            (List.combine queries responses))
        phases)
    Protocol.[ Warm_off; Warm_greedy; Warm_portfolio; Warm_cache ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "malformed and invalid requests" `Quick test_protocol_errors;
        ] );
      ( "admission",
        [
          Alcotest.test_case "token bucket per client" `Quick test_rate_admission;
          Alcotest.test_case "queue depth over a batch" `Quick test_queue_admission;
          Alcotest.test_case "mixed storm: definitive answers" `Quick test_mixed_storm;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "ladder, honest tags, probe recovery" `Quick
            test_degradation_and_recovery;
          Alcotest.test_case "retry absorbs transient aborts" `Quick test_retry_recovers;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "kill and restart: warm byte-identical" `Quick
            test_kill_and_restart;
          Alcotest.test_case "corrupted envelopes: cold start" `Quick
            test_corrupted_snapshot_cold_start;
          Alcotest.test_case "fault-injected corruption" `Quick test_fault_injected_snapshot;
          QCheck_alcotest.to_alcotest snapshot_roundtrip_prop;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "protocol field, honest gate, counters" `Quick
            test_decompose_protocol;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "flight cleanup under aborts" `Quick
            test_flight_cleanup_on_abort;
        ] );
      ( "front ends",
        [ Alcotest.test_case "batch and serve answer alike" `Quick test_front_ends_agree ] );
      ( "io",
        [
          Alcotest.test_case "serve_fds pipe loop" `Quick test_serve_fds;
          Alcotest.test_case "serve_socket" `Quick test_serve_socket;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "interleaved stream: ids, order, cache" `Quick
            test_stream_interleaving;
          Alcotest.test_case "stall burns one worker, not the loop" `Quick
            test_stall_isolation;
          Alcotest.test_case "socket response order under jobs > 1" `Quick
            test_socket_concurrent_ordering;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "watchdog force-answers a wedged solve" `Quick
            test_watchdog_kills_wedged;
          Alcotest.test_case "shutdown drains the queued backlog" `Quick
            test_stream_shutdown_drain;
        ] );
      ( "transport",
        [
          Alcotest.test_case "max-conns refusal" `Quick test_max_conns;
          Alcotest.test_case "socket takeover refused" `Quick
            test_socket_takeover_refused;
          Alcotest.test_case "slow client evicted" `Quick test_slow_client_eviction;
        ] );
    ]
