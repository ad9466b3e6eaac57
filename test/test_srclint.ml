(* Tests for the srclint source analyzer (tool/srclint).

   Three families:

   1. Golden fixtures: each scenario mounts fixture sources (stored as
      .ml.fx so the repo walkers skip them) at virtual repo paths and
      must produce exactly the S-codes recorded in
      golden/srclint_fixtures.expected — codes are a stable interface,
      so a pass refactor that changes what a defect reports has to
      update the golden file consciously.

   2. Mutation properties: starting from aligned sources, deleting a
      joinopt.* stamp must surface S301, and reordering two lock
      acquisitions into a cycle must surface S101 — the checks that
      matter are the ones that fire when the repo regresses. The stamp
      property also runs against the real lib/core + lib/milp sources
      when the source tree is reachable from the test cwd.

   3. Lexer hardening: quoted-string ids with digits/underscores, tab
      whitespace and the linear [contains].

   4. Command line: a mistyped flag or a root with nothing to scan exits
      2 instead of reporting a vacuous clean run. *)

module Lexer = Srclint.Lexer
module Engine = Srclint.Engine
module Findings = Srclint.Findings
module Pass_meta = Srclint.Pass_meta
module Model = Srclint.Model

let fixture_dir = "golden/srclint_fixtures"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fixture name = read_file (Filename.concat fixture_dir name)

(* Scenario: fixture files mounted at virtual paths, analyzed together
   (no allowlist — fixtures pin raw findings). *)
let scenarios =
  [
    ("lock_cycle", [ ("lock_cycle.ml.fx", "lib/service/fx_locks.ml") ], None);
    ("lock_order_clean", [ ("lock_order_clean.ml.fx", "lib/service/fx_order.ml") ], None);
    ("blocking", [ ("blocking.ml.fx", "lib/service/fx_block.ml") ], None);
    ("request_path", [ ("request_path_locked.ml.fx", "lib/service/fx_request.ml") ], None);
    ("wait_wrong", [ ("wait_wrong.ml.fx", "lib/service/fx_wait.ml") ], None);
    ("spawn_race", [ ("spawn_race.ml.fx", "lib/service/fx_spawn.ml") ], None);
    ("budget_holes", [ ("budget_holes.ml.fx", "lib/milp/cuts.ml") ], None);
    ("decomp_budget", [ ("decomp_budget.ml.fx", "lib/decomp/decompose.ml") ], None);
    ( "meta",
      [
        ("meta_producer.ml.fx", "lib/core/fx_enc.ml");
        ("meta_consumer.ml.fx", "lib/milp/warm_start.ml");
      ],
      None );
    ( "protocol",
      [
        ("proto.ml.fx", "lib/service/protocol.ml");
        ("server_emit.ml.fx", "lib/service/server.ml");
      ],
      Some "protocol_docs.md" );
    ( "source",
      [
        ("source_cost.ml.fx", "lib/core/cost_enc.ml");
        ("source_service.ml.fx", "lib/service/fx_source.ml");
        ("source_budget.ml.fx", "lib/milp/budget.ml");
        ("source_server.ml.fx", "lib/service/server.ml");
      ],
      None );
  ]

let analyze_scenario (_, files, doc) =
  let sources = List.map (fun (fx, vpath) -> (vpath, fixture fx)) files in
  let docs =
    match doc with None -> [] | Some d -> [ ("README.md", fixture d) ]
  in
  snd (Engine.analyze ~use_allowlist:false ~docs sources)

let render_scenario ((name, _, _) as sc) =
  let findings = analyze_scenario sc in
  let codes = List.sort compare (List.map (fun f -> f.Findings.f_code) findings) in
  Printf.sprintf "%s: %s" name (match codes with [] -> "-" | cs -> String.concat " " cs)

let test_golden () =
  let actual = String.concat "\n" (List.map render_scenario scenarios) ^ "\n" in
  let expected = read_file (Filename.concat "golden" "srclint_fixtures.expected") in
  if actual <> expected then begin
    Printf.printf "--- expected ---\n%s--- actual ---\n%s" expected actual;
    Alcotest.fail "srclint fixture codes diverge from golden file"
  end

(* ------------------------------------------------------------------ *)
(* 2. Mutation properties                                               *)
(* ------------------------------------------------------------------ *)

let has_code code findings = List.exists (fun f -> f.Findings.f_code = code) findings

(* Replace every occurrence of [sub] in [s] with [rep]. *)
let replace_all s sub rep =
  let buf = Buffer.create (String.length s) in
  let n = String.length s and m = String.length sub in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub s !i m = sub then begin
      Buffer.add_string buf rep;
      i := !i + m
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* Deleting any consumed joinopt.* stamp from the producers must raise
   S301 for that key. *)
let stamp_deletion_property sources =
  let files = List.map (fun (p, src) -> Model.load p src) sources in
  let consumers = List.filter Pass_meta.is_consumer_file files in
  let consumed =
    List.concat_map
      (fun f -> List.map fst (Pass_meta.key_sites f ~idents:Pass_meta.meta_readers))
      consumers
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "some joinopt.* keys are consumed" true (consumed <> []);
  let baseline = snd (Engine.analyze ~use_allowlist:false sources) in
  Alcotest.(check bool) "aligned sources have no S301" false (has_code "S301" baseline);
  List.iter
    (fun key ->
      let mutated =
        List.map
          (fun (p, src) ->
            if String.length p >= 9 && String.sub p 0 9 = "lib/core/" then
              (p, replace_all src (Printf.sprintf "%S" key) "\"joinopt.deleted\"")
            else (p, src))
          sources
      in
      let findings = snd (Engine.analyze ~use_allowlist:false mutated) in
      let hit =
        List.exists
          (fun f ->
            f.Findings.f_code = "S301"
            && Srclint.Lexer.contains f.Findings.f_msg (Printf.sprintf "%S" key))
          findings
      in
      if not hit then
        Alcotest.fail
          (Printf.sprintf "deleting the %s stamp was not caught by S301" key))
    consumed

let test_stamp_deletion_fixture () =
  stamp_deletion_property
    [
      ("lib/core/fx_enc.ml", fixture "meta_aligned_producer.ml.fx");
      ("lib/milp/warm_start.ml", fixture "meta_aligned_consumer.ml.fx");
    ]

(* The same property against the real sources, when the (copied) source
   tree is visible from the test cwd — under dune that is
   _build/default/test, with the tree one level up. Skipped silently
   when the layout differs (e.g. a sandboxed runner). *)
let test_stamp_deletion_repo () =
  let root = ".." in
  let candidates =
    [ "lib/milp/warm_start.ml"; "lib/milp/lint.ml" ]
    @ (match Sys.readdir (Filename.concat root "lib/core") with
      | entries ->
        Array.to_list entries
        |> List.filter (fun e -> Filename.check_suffix e ".ml")
        |> List.map (fun e -> "lib/core/" ^ e)
      | exception Sys_error _ -> [])
  in
  let sources =
    List.filter_map
      (fun p ->
        let full = Filename.concat root p in
        if Sys.file_exists full then Some (p, read_file full) else None)
      candidates
  in
  if List.length sources < 3 then
    Printf.printf "source tree not visible from %s; fixture variant covers the property\n"
      (Sys.getcwd ())
  else stamp_deletion_property sources

(* Reordering two lock acquisitions into a cycle must raise S101. *)
let test_lock_reorder () =
  let src = fixture "lock_order_clean.ml.fx" in
  let clean = snd (Engine.analyze ~use_allowlist:false [ ("lib/service/fx_order.ml", src) ]) in
  Alcotest.(check bool) "consistent order is S101-clean" false (has_code "S101" clean);
  (* swap alpha/beta below the SPLIT marker *)
  let marker = "(* SPLIT *)" in
  let idx =
    let rec find i =
      if i + String.length marker > String.length src then
        Alcotest.fail "SPLIT marker missing from lock_order_clean fixture"
      else if String.sub src i (String.length marker) = marker then i
      else find (i + 1)
    in
    find 0
  in
  let head = String.sub src 0 idx in
  let tail = String.sub src idx (String.length src - idx) in
  let tail = replace_all tail "t.alpha" "t.TMP" in
  let tail = replace_all tail "t.beta" "t.alpha" in
  let tail = replace_all tail "t.TMP" "t.beta" in
  let mutated = snd (Engine.analyze ~use_allowlist:false [ ("lib/service/fx_order.ml", head ^ tail) ]) in
  Alcotest.(check bool) "reordered locks raise S101" true (has_code "S101" mutated)

(* ------------------------------------------------------------------ *)
(* 3. Lexer hardening                                                   *)
(* ------------------------------------------------------------------ *)

let test_quoted_string_ids () =
  (* ids with digits and underscores — the original stripper only
     accepted [a-z] and ran past the closing delimiter *)
  let src = "let s = {id_2|lock \"order\" Mutex.lock|id_2}\nlet x = Obj.magic" in
  let toks = Lexer.tokens src in
  let idents =
    Array.to_list toks
    |> List.filter_map (fun l ->
           match l.Lexer.l_tok with Lexer.Ident s -> Some s | _ -> None)
  in
  Alcotest.(check bool) "string content is not tokenized as idents" false
    (List.mem "Mutex.lock" idents);
  Alcotest.(check bool) "code after the quoted string is still seen" true
    (List.mem "Obj.magic" idents)

let test_tab_whitespace () =
  let toks = Lexer.tokens "let\tx\t=\t1.5" in
  let has t = Array.exists (fun l -> l.Lexer.l_tok = t) toks in
  Alcotest.(check bool) "tab-separated tokens lex" true
    (has (Lexer.Ident "let") && has (Lexer.Ident "x") && has (Lexer.Float "1.5"))

let test_contains () =
  Alcotest.(check bool) "hit" true (Lexer.contains "abcabcabd" "abcabd");
  Alcotest.(check bool) "miss" false (Lexer.contains "abcabcab" "abcabd");
  Alcotest.(check bool) "empty needle" true (Lexer.contains "x" "");
  Alcotest.(check bool) "needle longer than hay" false (Lexer.contains "ab" "abc")

(* ------------------------------------------------------------------ *)
(* 4. Command line                                                      *)
(* ------------------------------------------------------------------ *)

(* The built analyzer, a declared dependency of this test. *)
let srclint_exe = "../tool/srclint_main.exe"

let exit_code args =
  Sys.command
    (Filename.quote_command srclint_exe ~stdout:Filename.null ~stderr:Filename.null args)

let test_usage_errors () =
  Alcotest.(check int) "unknown flag exits 2" 2 (exit_code [ "--jsn" ]);
  Alcotest.(check int) "missing root exits 2" 2 (exit_code [ "/nonexistent" ]);
  Alcotest.(check int) "root with no .ml file exits 2" 2 (exit_code [ fixture_dir ])

let () =
  Alcotest.run "srclint"
    [
      ( "golden",
        [ Alcotest.test_case "fixture code sets" `Quick test_golden ] );
      ( "mutation",
        [
          Alcotest.test_case "stamp deletion (fixture)" `Quick test_stamp_deletion_fixture;
          Alcotest.test_case "stamp deletion (repo)" `Quick test_stamp_deletion_repo;
          Alcotest.test_case "lock reorder" `Quick test_lock_reorder;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "quoted-string ids" `Quick test_quoted_string_ids;
          Alcotest.test_case "tab whitespace" `Quick test_tab_whitespace;
          Alcotest.test_case "linear contains" `Quick test_contains;
        ] );
      ("cli", [ Alcotest.test_case "usage errors exit 2" `Quick test_usage_errors ]);
    ]
