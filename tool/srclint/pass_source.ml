(* S5xx — source invariants: patterns that have bitten the project
   before, matched on the token stream so comments and string literals
   never trip them and S504 sees expressions that span lines.

   S501 error    [Unix.gettimeofday] outside lib/milp/budget.ml — every
                 timing decision must go through the Budget monotone
                 clock, or budget accounting and checkpoint resume drift
                 apart under clock steps
   S502 error    [Random.self_init] / [Random.State.make_self_init] —
                 seeds must be explicit; self-seeding breaks workload
                 reproducibility and the differential oracle
   S503 error    [Obj.magic] — never
   S504 error    polymorphic (=)/(<>) against a float literal in a cost
                 path (lib/core cost and threshold code, lib/dp_opt,
                 lib/relalg/cost_model.ml) — NaN-unsound, a silent trap
                 when a cost becomes NaN; use Float.compare. The simplex
                 kernels use exact zero tests on purpose and are out of
                 scope
   S505 error    blocking primitives (Unix.sleep/sleepf/select/read,
                 input_line, really_input) in lib/service outside
                 server.ml — the service layer must stay non-blocking so
                 the scheduler's domains and the server's admission path
                 never stall on I/O; only the server's own poll loop
                 (and its retry backoff) may block

   The two path exemptions (budget.ml for S501, server.ml for S505) are
   part of the rules' scopes, not allowlist entries: they are where the
   forbidden primitive is implemented, not code excused from a rule. *)

let has_prefix s p = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* S501 scope: the monotone-clamp implementation is the one reader of
   the wall clock. *)
let clock_scope path = path <> "lib/milp/budget.ml"

(* S505 scope: the service layer minus the server's poll loop. *)
let service_scope path = has_prefix path "lib/service/" && path <> "lib/service/server.ml"

let service_blocking_tokens =
  [
    "Unix.sleep";  (* also matches Unix.sleepf *)
    "Unix.select";
    "Unix.read";
    "input_line";
    "really_input";
  ]

(* S504 scope. *)
let cost_path path =
  List.mem path
    [ "lib/core/cost_enc.ml"; "lib/core/thresholds.ml"; "lib/relalg/cost_model.ml" ]
  || has_prefix path "lib/dp_opt/"

(* --- S504: polymorphic float comparison ------------------------------ *)

let is_float_tok = function
  | Lexer.Float _ -> true
  | Lexer.Ident ("infinity" | "nan" | "Float.infinity" | "Float.nan") -> true
  | _ -> false

(* Walk back from the comparison until something decides the context:
   [if]/[when]/[assert]/[&&]/[||] make it a test; [let]/[and]/[then]/
   [else]/[{]/[;]/[?]/[->]/[,] make it a binding, record field or
   optional-argument default. Bounded so pathological token runs stay
   cheap. *)
let testish_before toks i =
  let rec go j left =
    if j < 0 || left = 0 then false
    else
      match toks.(j).Lexer.l_tok with
      | Lexer.Ident ("if" | "when" | "assert") | Lexer.Op ("&&" | "||") -> true
      | Lexer.Ident ("let" | "and" | "then" | "else" | "do" | "in")
      | Lexer.Op ("{" | ";" | "?" | "->" | "," | "<-" | ":=") ->
        false
      | _ -> go (j - 1) (left - 1)
  in
  go (i - 1) 40

(* ...or the comparison is the left leg of a conjunction: [x = 0.5 && y]. *)
let testish_after toks i =
  let n = Array.length toks in
  let rec go j left =
    if j >= n || left = 0 then false
    else
      match toks.(j).Lexer.l_tok with
      | Lexer.Op ("&&" | "||") -> true
      | Lexer.Ident ("then" | "in" | "do") | Lexer.Op (";" | "->" | ",") -> false
      | _ -> go (j + 1) (left - 1)
  in
  go (i + 1) 8

(* A [Float.compare] (or any .compare) within the neighbourhood means
   the float test is already done properly and the [=] is incidental
   (e.g. [Float.compare a b = 0]). *)
let compare_nearby toks i =
  let n = Array.length toks in
  let hit = ref false in
  for j = max 0 (i - 6) to min (n - 1) (i + 2) do
    match toks.(j).Lexer.l_tok with
    | Lexer.Ident name when Lexer.last_comp name = "compare" -> hit := true
    | _ -> ()
  done;
  !hit

let float_compare_findings toks =
  let n = Array.length toks in
  let out = ref [] in
  for i = 0 to n - 1 do
    match toks.(i).Lexer.l_tok with
    | Lexer.Op (("=" | "<>") as op) when not (compare_nearby toks i) ->
      (* operand on either side, skipping one open paren *)
      let operand_float j step =
        let j = if j >= 0 && j < n
                && (match toks.(j).Lexer.l_tok with Lexer.Op ("(" | ")") -> true | _ -> false)
          then j + step else j
        in
        j >= 0 && j < n && is_float_tok toks.(j).Lexer.l_tok
      in
      let floaty = operand_float (i + 1) 1 || operand_float (i - 1) (-1) in
      if floaty && (op = "<>" || testish_before toks i || testish_after toks i) then
        out := toks.(i).Lexer.l_line :: !out
    | _ -> ()
  done;
  List.rev !out

let run ctx =
  List.iter
    (fun (f : Model.file) ->
      let path = f.Model.m_path in
      let report code line msg = Ctx.emit ctx ~code ~sev:Findings.Error ~path ~line msg in
      let in_service = service_scope path in
      Array.iter
        (fun lx ->
          match lx.Lexer.l_tok with
          | Lexer.Ident name ->
            if Lexer.contains name "Unix.gettimeofday" && clock_scope path then
              report "S501" lx.Lexer.l_line
                "Unix.gettimeofday outside lib/milp/budget.ml; use Milp.Budget.now";
            if
              Lexer.contains name "Random.self_init"
              || Lexer.contains name "Random.State.make_self_init"
            then
              report "S502" lx.Lexer.l_line
                "self-seeded RNG breaks reproducibility; seed explicitly";
            if Lexer.contains name "Obj.magic" then
              report "S503" lx.Lexer.l_line "Obj.magic is forbidden";
            if in_service then
              List.iter
                (fun tok ->
                  if Lexer.contains name tok then
                    report "S505" lx.Lexer.l_line
                      (tok
                      ^ " in lib/service outside server.ml; the service layer must not \
                         block"))
                service_blocking_tokens
          | _ -> ())
        f.Model.m_toks;
      if cost_path path then
        List.iter
          (fun line ->
            report "S504" line
              "polymorphic (=)/(<>) on a float in a cost path; use Float.compare")
          (float_compare_findings f.Model.m_toks))
    ctx.Ctx.c_files
