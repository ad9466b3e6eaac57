(* Per-file token/scope model shared by the passes.

   This is deliberately a *token*-level approximation, not a parse tree:
   the passes need binding names, call references, loop extents and lock
   sites — all recoverable from the positioned token stream with a
   bracket-depth walk — and a full frontend would couple the linter to a
   compiler release. The approximations err toward over-wide extents
   (a local binding's extent runs to the end of its enclosing top-level
   binding), which over-approximates reference sets; passes are designed
   so that over-approximation suppresses findings rather than inventing
   them, and golden fixtures pin the positives. *)

type file = {
  m_path : string;
  m_base : string;
  m_src : string;  (* raw source; doc passes scan it directly *)
  m_toks : Lexer.lexeme array;
}

type binding = {
  b_name : string;
  b_start : int;  (* token index of the [let]/[and] *)
  b_stop : int;  (* exclusive *)
  b_line : int;
  b_toplevel : bool;
}

let load path src =
  {
    m_path = path;
    m_base = Filename.basename path;
    m_src = src;
    m_toks = Lexer.tokens src;
  }

let tok i (f : file) = f.m_toks.(i).Lexer.l_tok

let tok_opt f i =
  if i >= 0 && i < Array.length f.m_toks then Some f.m_toks.(i).Lexer.l_tok else None

let ident_at f i =
  if i >= 0 && i < Array.length f.m_toks then
    match tok i f with Lexer.Ident s -> Some s | _ -> None
  else None

(* Module name a dotted reference would use for this file: capitalize
   the basename ("plan_cache.ml" -> "Plan_cache"). *)
let module_name f =
  let stem = Filename.remove_extension f.m_base in
  String.capitalize_ascii stem

(* --- bindings --------------------------------------------------------- *)

(* Openers/closers for the depth walk. [do]/[done] pair for while/for;
   [begin]/[struct]/[sig]/[object] all close with [end]. [struct] is
   tracked separately because it shifts the column at which ocamlformat
   places "top-level" bindings (2 spaces per module nesting level). *)
let bindings f =
  let n = Array.length f.m_toks in
  let out = ref [] in
  let struct_depth = ref 0 in
  (* indices of currently-open top-level bindings per struct depth, so a
     struct's [end] closes the bindings opened inside it *)
  let open_top : (int * binding) list ref = ref [] in
  let close_top_from depth stop =
    let closing, keep = List.partition (fun (d, _) -> d >= depth) !open_top in
    open_top := keep;
    List.iter (fun (_, b) -> out := { b with b_stop = stop } :: !out) closing
  in
  let locals : binding list ref = ref [] in
  let prev_line = ref (-1) in
  let i = ref 0 in
  while !i < n do
    let lx = f.m_toks.(!i) in
    let first_on_line = lx.Lexer.l_line <> !prev_line in
    prev_line := lx.Lexer.l_line;
    (match lx.Lexer.l_tok with
    | Lexer.Ident "struct" -> incr struct_depth
    | Lexer.Ident "end" ->
      if !struct_depth > 0 then begin
        close_top_from !struct_depth !i;
        decr struct_depth
      end
    | Lexer.Ident (("let" | "and") as kw) ->
      let toplevel = first_on_line && lx.Lexer.l_col = 2 * !struct_depth in
      let j = ref (!i + 1) in
      (match ident_at f !j with Some "rec" -> incr j | _ -> ());
      (* [let () = ...] — a unit main; track it so its body is walked *)
      (if toplevel && ident_at f !j = None then
         match (tok_opt f !j, tok_opt f (!j + 1)) with
         | Some (Lexer.Op "("), Some (Lexer.Op ")") ->
           close_top_from !struct_depth !i;
           open_top :=
             ( !struct_depth,
               {
                 b_name = "_unit";
                 b_start = !i;
                 b_stop = n;
                 b_line = lx.Lexer.l_line;
                 b_toplevel = true;
               } )
             :: !open_top
         | _ -> ());
      (match ident_at f !j with
      | Some name
        when name <> "" && name <> "open" && name <> "module"
             && (let c = name.[0] in
                 (c >= 'a' && c <= 'z') || c = '_') ->
        if toplevel then begin
          (* a top-level binding ends the previous one at this depth *)
          close_top_from !struct_depth !i;
          open_top :=
            ( !struct_depth,
              {
                b_name = name;
                b_start = !i;
                b_stop = n;
                b_line = lx.Lexer.l_line;
                b_toplevel = true;
              } )
            :: !open_top
        end
        else begin
          (* local binding: index it only when it is a *function* (has
             parameters before '='), so value aliases like
             [let sub = Budget.sub b ()] cannot launder a reference
             into a call. Extent: to the end of the file; trimmed to
             the enclosing top-level binding by [resolve] below. *)
          let k = ref (!j + 1) in
          let params = ref 0 in
          let stop = ref false in
          while (not !stop) && !k < n && !k < !j + 24 do
            (match tok !k f with
            | Lexer.Op "=" -> stop := true
            | Lexer.Op ("(" | ")") | Lexer.Ident _ -> incr params
            | Lexer.Op ("~" | "?" | ":" | "{" | "}" | ";" | ",") -> incr params
            | _ -> stop := true);
            incr k
          done;
          if !stop && !params > 0 && !k <= !j + 24 then
            locals :=
              {
                b_name = name;
                b_start = !i;
                b_stop = n;
                b_line = lx.Lexer.l_line;
                b_toplevel = false;
              }
              :: !locals
        end
      | _ -> ());
      ignore kw
    | _ -> ());
    incr i
  done;
  close_top_from 0 n;
  let tops = List.rev !out in
  (* trim each local's extent to its enclosing top-level binding *)
  let locals =
    List.rev_map
      (fun (b : binding) ->
        match
          List.find_opt (fun t -> t.b_start <= b.b_start && b.b_start < t.b_stop) tops
        with
        | Some t -> { b with b_stop = t.b_stop }
        | None -> b)
      !locals
  in
  tops @ locals

(* All identifier references inside a token range. *)
let refs_in f start stop =
  let acc = ref [] in
  for i = start to min stop (Array.length f.m_toks) - 1 do
    match tok i f with Lexer.Ident s -> acc := s :: !acc | _ -> ()
  done;
  !acc

(* --- cross-file binding resolution ------------------------------------ *)

type index = {
  ix_files : file list;
  ix_bindings : (file * binding) list;  (* all files, all bindings *)
  ix_by_module : (string, file) Hashtbl.t;
}

let index files =
  let ix_by_module = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace ix_by_module (module_name f) f) files;
  {
    ix_files = files;
    ix_bindings = List.concat_map (fun f -> List.map (fun b -> (f, b)) (bindings f)) files;
    ix_by_module;
  }

(* Resolve a reference [name] made inside [from_file] to candidate
   bindings. A plain lowercase name resolves within its own file; a
   dotted name resolves through any component that matches a scanned
   file's module name ([Milp.Work_pool.submit] -> work_pool.ml's
   [submit]). Unresolvable names (stdlib, parameters) return []. *)
let resolve ix ~from_file name =
  let comps = String.split_on_char '.' name in
  match comps with
  | [ plain ] ->
    List.filter
      (fun ((f : file), (b : binding)) -> f.m_path = from_file.m_path && b.b_name = plain)
      ix.ix_bindings
  | _ ->
    let last = Lexer.last_comp name in
    let target_files =
      List.filter_map (fun c -> Hashtbl.find_opt ix.ix_by_module c) comps
    in
    List.filter
      (fun ((f : file), (b : binding)) ->
        b.b_name = last && List.exists (fun tf -> tf.m_path = f.m_path) target_files)
      ix.ix_bindings
