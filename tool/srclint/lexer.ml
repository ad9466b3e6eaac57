(* Lexical layer for the source analyzer: a positioned token stream
   over an OCaml source file. Comments are skipped, so doc references to
   forbidden names never trip a rule; string literal contents are *kept*
   as [Str] tokens, because the passes need both identifier structure
   (dotted paths like [Mutex.lock]) and literal keys ("joinopt.tables",
   protocol field names) — an identifier inside a string is never an
   [Ident].

   Quoted-string delimiters [{id|…|id}] accept underscores and digits in
   the id, not just lowercase letters, and whitespace means spaces *and*
   tabs — a tab must not defeat the float-comparison rule. *)

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* [matches_at s i sub]: does [sub] occur in [s] starting at [i]?
   Allocation-free (the original sliced a fresh string per probe). *)
let matches_at s i sub =
  let m = String.length sub in
  i + m <= String.length s
  && begin
       let j = ref 0 in
       while !j < m && s.[i + !j] = sub.[!j] do
         incr j
       done;
       !j = m
     end

(* Substring search as one forward scan (Knuth–Morris–Pratt): the
   analyzer runs many passes over every file, and the old
   [String.sub]-per-position probe was O(n·m) with an allocation per
   candidate position — too slow for a pre-commit hook. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else if m > n then false
  else begin
    (* failure function *)
    let fail = Array.make m 0 in
    let k = ref 0 in
    for i = 1 to m - 1 do
      while !k > 0 && sub.[i] <> sub.[!k] do
        k := fail.(!k - 1)
      done;
      if sub.[i] = sub.[!k] then incr k;
      fail.(i) <- !k
    done;
    let q = ref 0 in
    let i = ref 0 in
    let found = ref false in
    while (not !found) && !i < n do
      while !q > 0 && s.[!i] <> sub.[!q] do
        q := fail.(!q - 1)
      done;
      if s.[!i] = sub.[!q] then incr q;
      if !q = m then found := true;
      incr i
    done;
    !found
  end

let is_quoted_id c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_'

(* --- token stream ---------------------------------------------------- *)

type tok =
  | Ident of string  (* possibly dotted: [Mutex.lock], [t.p_mu] *)
  | Int of string
  | Float of string  (* any numeric literal with a '.' or exponent *)
  | Str of string  (* string literal content, escapes passed through *)
  | Chr  (* char literal; the analyzer never needs its value *)
  | Op of string  (* a maximal run of symbol chars, or one delimiter *)

type lexeme = { l_line : int; l_col : int; l_tok : tok }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_digit c = c >= '0' && c <= '9'

let is_symbol_char c = String.contains "!$%&*+-./:<=>?@^|~" c

let tokens src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let line_start = ref 0 in
  let i = ref 0 in
  let emit col tok = out := { l_line = !line; l_col = col; l_tok = tok } :: !out in
  let col_of pos = pos - !line_start in
  let newline pos =
    incr line;
    line_start := pos + 1
  in
  let comment_depth = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      newline !i;
      incr i
    end
    else if !comment_depth > 0 then begin
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        incr comment_depth;
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        decr comment_depth;
        i := !i + 2
      end
      else incr i
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      incr comment_depth;
      i := !i + 2
    end
    else if is_space c then incr i
    else if c = '"' then begin
      let col = col_of !i in
      let buf = Buffer.create 16 in
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        if src.[!i] = '\\' && !i + 1 < n then begin
          (* backslash-newline string continuation still ends a line *)
          if src.[!i + 1] = '\n' then newline (!i + 1);
          Buffer.add_char buf src.[!i + 1];
          i := !i + 2
        end
        else if src.[!i] = '"' then begin
          incr i;
          fin := true
        end
        else begin
          if src.[!i] = '\n' then newline !i;
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      emit col (Str (Buffer.contents buf))
    end
    else if c = '{' && !i + 1 < n && (src.[!i + 1] = '|' || is_quoted_id src.[!i + 1])
            && begin
                 let j = ref (!i + 1) in
                 while !j < n && is_quoted_id src.[!j] do
                   incr j
                 done;
                 !j < n && src.[!j] = '|'
               end
    then begin
      (* quoted string {id|...|id} *)
      let col = col_of !i in
      let j = ref (!i + 1) in
      while !j < n && is_quoted_id src.[!j] do
        incr j
      done;
      let id = String.sub src (!i + 1) (!j - !i - 1) in
      let close = "|" ^ id ^ "}" in
      let cl = String.length close in
      let start = !j + 1 in
      let stop = ref start in
      while !stop + cl <= n && not (matches_at src !stop close) do
        if src.[!stop] = '\n' then newline !stop;
        incr stop
      done;
      emit col (Str (String.sub src start (!stop - start)));
      i := min n (!stop + cl)
    end
    else if c = '\'' && !i + 2 < n && src.[!i + 1] <> '\\' && src.[!i + 2] = '\''
            && src.[!i + 1] <> '\n'
    then begin
      emit (col_of !i) Chr;
      i := !i + 3
    end
    else if c = '\'' && !i + 1 < n && src.[!i + 1] = '\\' then begin
      (* escaped char literal: '\n', '\\', '\123', '\xFF' *)
      let col = col_of !i in
      let j = ref (!i + 2) in
      while !j < n && src.[!j] <> '\'' && !j < !i + 7 do
        incr j
      done;
      if !j < n && src.[!j] = '\'' then begin
        emit col Chr;
        i := !j + 1
      end
      else incr i
    end
    else if is_ident_start c then begin
      let col = col_of !i in
      let buf = Buffer.create 16 in
      let seg () =
        while !i < n && is_ident_char src.[!i] do
          Buffer.add_char buf src.[!i];
          incr i
        done
      in
      seg ();
      (* dotted path: continue through '.' when an identifier follows *)
      while !i + 1 < n && src.[!i] = '.' && is_ident_start src.[!i + 1] do
        Buffer.add_char buf '.';
        incr i;
        seg ()
      done;
      emit col (Ident (Buffer.contents buf))
    end
    else if is_digit c then begin
      let col = col_of !i in
      let start = !i in
      let floaty = ref false in
      if c = '0' && !i + 1 < n && (src.[!i + 1] = 'x' || src.[!i + 1] = 'X') then begin
        i := !i + 2;
        while
          !i < n
          && (is_digit src.[!i]
             || (src.[!i] >= 'a' && src.[!i] <= 'f')
             || (src.[!i] >= 'A' && src.[!i] <= 'F')
             || src.[!i] = '_')
        do
          incr i
        done
      end
      else begin
        while !i < n && (is_digit src.[!i] || src.[!i] = '_') do
          incr i
        done;
        if !i < n && src.[!i] = '.' then begin
          floaty := true;
          incr i;
          while !i < n && (is_digit src.[!i] || src.[!i] = '_') do
            incr i
          done
        end;
        if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          floaty := true;
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
          while !i < n && is_digit src.[!i] do
            incr i
          done
        end
      end;
      (* int-literal suffixes: 1L, 2n, 3l *)
      if !i < n && (src.[!i] = 'L' || src.[!i] = 'l' || src.[!i] = 'n') then incr i;
      let text = String.sub src start (!i - start) in
      emit col (if !floaty then Float text else Int text)
    end
    else if c = '(' || c = ')' || c = '[' || c = ']' || c = '{' || c = '}' || c = ','
            || c = ';' || c = '`' || c = '#'
    then begin
      (* [;;] only ever separates top-level phrases; one token is enough *)
      emit (col_of !i) (Op (String.make 1 c));
      incr i
    end
    else if is_symbol_char c then begin
      let col = col_of !i in
      let start = !i in
      while !i < n && is_symbol_char src.[!i] do
        incr i
      done;
      emit col (Op (String.sub src start (!i - start)))
    end
    else incr i (* type variables' quote, unknown bytes *)
  done;
  Array.of_list (List.rev !out)

(* --- small helpers over dotted identifiers --------------------------- *)

let last_comp s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let first_comp s =
  match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s

let has_comp s comp =
  List.mem comp (String.split_on_char '.' s)
