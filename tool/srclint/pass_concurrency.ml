(* S1xx — concurrency discipline.

   S101 error    lock-order cycle in the inter-file lock-acquisition
                 graph (edge u->v when v is acquired while u is held,
                 directly or through a called function's summary)
   S102 error    blocking call or solver entry point reached while a
                 lock is held ([Condition.wait] is exempt: it releases)
   S103 error    [Condition.wait] on a mutex other than the one held —
                 or on a mutex no scanned code ever locks
   S104 error    a [Domain.spawn] closure mutates state ([:=] / [<-])
                 with no Mutex or Atomic anywhere in its call tree

   Lock identity is the last component of the mutex expression
   ([t.p_mu] -> "p_mu"): field names are unique across this codebase's
   lock-carrying records, which is what makes a cross-file *name* graph
   meaningful. The walk is a linear intra-binding lock-stack simulation
   plus per-binding acquire summaries propagated to call sites — branch
   merges are approximated (an unlock with no matching lock is a no-op),
   which errs toward missing an edge, never inventing one; the golden
   fixtures pin the positives. *)

let blocking_idents =
  [ "Unix.sleep"; "Unix.sleepf"; "Unix.select"; "Unix.read"; "input_line"; "really_input";
    "Domain.join" ]

let solver_entry_idents =
  [ "Optimizer.optimize"; "Branch_bound.solve"; "Solver.solve"; "Simplex.solve";
    "Scheduler.run"; "Request_path.solve" ]

let is_blocking name = List.mem name blocking_idents

let is_solver_entry name =
  List.exists
    (fun s ->
      let m = Lexer.first_comp s and fn = Lexer.last_comp s in
      Lexer.has_comp name m && Lexer.last_comp name = fn)
    solver_entry_idents

(* The mutex argument following a [Mutex.lock]/[Condition.wait] site. *)
let arg_ident f i =
  let n = Array.length f.Model.m_toks in
  let rec go j skipped =
    if j >= n || skipped > 3 then None
    else
      match Model.tok j f with
      | Lexer.Ident s -> Some s
      | Lexer.Op "(" -> go (j + 1) (skipped + 1)
      | _ -> None
  in
  go (i + 1) 0

let lock_name_of_arg s = Lexer.last_comp s

(* Is this unlock inside a [~finally:(fun () -> ...)] thunk? Those run
   when the protected body *ends*, not at this point of the text — so
   they must not pop the simulated stack. *)
let in_finally f i =
  let lo = max 0 (i - 10) in
  let rec go j =
    if j < lo then false
    else
      match Model.tok j f with
      | Lexer.Ident "finally" -> true
      | _ -> go (j - 1)
  in
  go (i - 1)

type edge = { e_from : string; e_to : string; e_path : string; e_line : int }

(* Phase A: per-binding direct lock acquisitions, for call-site
   summaries. Fixpoint over the call graph (bounded iterations). *)
let summaries ix =
  let tbl : (string * string, string list) Hashtbl.t = Hashtbl.create 64 in
  let key (f : Model.file) (b : Model.binding) = (f.Model.m_path, b.b_name) in
  let direct (f : Model.file) (b : Model.binding) =
    let acc = ref [] in
    for i = b.Model.b_start to b.Model.b_stop - 1 do
      match Model.tok i f with
      | Lexer.Ident "Mutex.lock" -> (
        match arg_ident f i with
        | Some a -> acc := lock_name_of_arg a :: !acc
        | None -> ())
      | _ -> ()
    done;
    List.sort_uniq compare !acc
  in
  List.iter (fun (f, b) -> Hashtbl.replace tbl (key f b) (direct f b)) ix.Model.ix_bindings;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun ((f : Model.file), (b : Model.binding)) ->
        let cur = try Hashtbl.find tbl (key f b) with Not_found -> [] in
        let callees = Model.refs_in f b.Model.b_start b.Model.b_stop in
        let extra =
          List.concat_map
            (fun name ->
              List.concat_map
                (fun (cf, cb) ->
                  if cf.Model.m_path = f.Model.m_path && cb.Model.b_name = b.Model.b_name
                  then []
                  else try Hashtbl.find tbl (key cf cb) with Not_found -> [])
                (Model.resolve ix ~from_file:f name))
            callees
        in
        let next = List.sort_uniq compare (cur @ extra) in
        if next <> cur then begin
          Hashtbl.replace tbl (key f b) next;
          changed := true
        end)
      ix.Model.ix_bindings
  done;
  fun (f : Model.file) name ->
    List.sort_uniq compare
      (List.concat_map
         (fun (cf, cb) -> try Hashtbl.find tbl (key cf cb) with Not_found -> [])
         (Model.resolve ix ~from_file:f name))

(* Phase B: simulate each top-level binding, collecting edges, S102 and
   S103 sites. *)
let simulate ctx summary =
  let edges = ref [] in
  let orphan_waits = ref [] in
  let locked_somewhere = Hashtbl.create 32 in
  List.iter
    (fun (f : Model.file) ->
      let tops = List.filter (fun b -> b.Model.b_toplevel) (Model.bindings f) in
      List.iter
        (fun (b : Model.binding) ->
          let stack = ref [] in
          for i = b.Model.b_start to b.Model.b_stop - 1 do
            let lx = f.Model.m_toks.(i) in
            match lx.Lexer.l_tok with
            | Lexer.Ident "Mutex.lock" -> (
              match arg_ident f i with
              | Some a ->
                let name = lock_name_of_arg a in
                Hashtbl.replace locked_somewhere name ();
                List.iter
                  (fun held ->
                    if held <> name then
                      edges :=
                        {
                          e_from = held;
                          e_to = name;
                          e_path = f.Model.m_path;
                          e_line = lx.Lexer.l_line;
                        }
                        :: !edges)
                  !stack;
                stack := name :: !stack
              | None -> ())
            | Lexer.Ident "Mutex.unlock" -> (
              match arg_ident f i with
              | Some a when not (in_finally f i) ->
                let name = lock_name_of_arg a in
                let rec remove = function
                  | [] -> []
                  | x :: rest -> if x = name then rest else x :: remove rest
                in
                stack := remove !stack
              | _ -> ())
            | Lexer.Ident "Condition.wait" -> (
              (* Condition.wait cv mu: the 2nd identifier argument *)
              let rec args j found =
                if j >= b.Model.b_stop || List.length found >= 2 then List.rev found
                else
                  match Model.tok j f with
                  | Lexer.Ident s -> args (j + 1) (s :: found)
                  | Lexer.Op "(" -> args (j + 1) found
                  | _ -> List.rev found
              in
              match args (i + 1) [] with
              | [ _cv; mu ] -> (
                let name = lock_name_of_arg mu in
                match !stack with
                | [] ->
                  (* No lock visible here: legal when the caller holds
                     it (par_pool's worker_next contract). Defer to the
                     whole-repo check below. *)
                  orphan_waits := (f.Model.m_path, lx.Lexer.l_line, name) :: !orphan_waits
                | held ->
                  if not (List.mem name held) then
                    Ctx.emit ctx ~code:"S103" ~sev:Findings.Error ~path:f.Model.m_path
                      ~line:lx.Lexer.l_line
                      (Printf.sprintf
                         "Condition.wait on mutex %S while holding %s — waiting releases \
                          the named mutex, not the one actually held"
                         name
                         (String.concat ", " held)))
              | _ -> ())
            | Lexer.Ident name when !stack <> [] && is_blocking name ->
              Ctx.emit ctx ~code:"S102" ~sev:Findings.Error ~path:f.Model.m_path
                ~line:lx.Lexer.l_line
                (Printf.sprintf "blocking call %s while holding lock %s" name
                   (List.hd !stack))
            | Lexer.Ident name when !stack <> [] && is_solver_entry name ->
              Ctx.emit ctx ~code:"S102" ~sev:Findings.Error ~path:f.Model.m_path
                ~line:lx.Lexer.l_line
                (Printf.sprintf "solver entry point %s reached while holding lock %s" name
                   (List.hd !stack))
            | Lexer.Ident name when !stack <> [] -> (
              (* call-site summary: locks acquired inside the callee
                 order after everything currently held *)
              match summary f name with
              | [] -> ()
              | acquired ->
                List.iter
                  (fun acq ->
                    List.iter
                      (fun held ->
                        if held <> acq then
                          edges :=
                            {
                              e_from = held;
                              e_to = acq;
                              e_path = f.Model.m_path;
                              e_line = lx.Lexer.l_line;
                            }
                            :: !edges)
                      !stack)
                  acquired)
            | _ -> ()
          done)
        tops)
    ctx.Ctx.c_files;
  (!edges, !orphan_waits, locked_somewhere)

(* S101: cycles in the lock-order graph. *)
let report_cycles ctx edges =
  let adj = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let cur = try Hashtbl.find adj e.e_from with Not_found -> [] in
      Hashtbl.replace adj e.e_from (e :: cur))
    edges;
  let reachable src dst =
    let seen = Hashtbl.create 16 in
    let rec go node =
      if node = dst then true
      else if Hashtbl.mem seen node then false
      else begin
        Hashtbl.replace seen node ();
        List.exists (fun e -> go e.e_to) (try Hashtbl.find adj node with Not_found -> [])
      end
    in
    go src
  in
  let reported = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if reachable e.e_to e.e_from then begin
        let cyc_key =
          String.concat "->" (List.sort compare [ e.e_from; e.e_to ])
        in
        if not (Hashtbl.mem reported cyc_key) then begin
          Hashtbl.replace reported cyc_key ();
          Ctx.emit ctx ~code:"S101" ~sev:Findings.Error ~path:e.e_path ~line:e.e_line
            (Printf.sprintf
               "lock-order cycle: %s -> %s and %s -> %s are both acquired — two domains \
                taking the locks in opposite orders deadlock"
               e.e_from e.e_to e.e_to e.e_from)
        end
      end)
    edges

(* S104: Domain.spawn closures mutating unsynchronized state. *)
let check_spawns ctx =
  let ix = ctx.Ctx.c_index in
  List.iter
    (fun (f : Model.file) ->
      let n = Array.length f.Model.m_toks in
      for i = 0 to n - 1 do
        match Model.tok i f with
        | Lexer.Ident "Domain.spawn" ->
          let line = f.Model.m_toks.(i).Lexer.l_line in
          (* closure extent: the parenthesized argument, or a named
             callee resolved through the binding index *)
          let seed_extents, seed_names =
            match Model.tok_opt f (i + 1) with
            | Some (Lexer.Op "(") ->
              let depth = ref 1 in
              let j = ref (i + 2) in
              while !depth > 0 && !j < n do
                (match Model.tok !j f with
                | Lexer.Op "(" -> incr depth
                | Lexer.Op ")" -> decr depth
                | _ -> ());
                incr j
              done;
              ([ (i + 2, !j - 1) ], [])
            | Some (Lexer.Ident callee) -> ([], [ callee ])
            | _ -> ([], [])
          in
          let visited = Hashtbl.create 16 in
          let has_mutation = ref false in
          let has_sync = ref false in
          let rec visit_extent depth (start, stop) =
            for k = start to stop - 1 do
              match Model.tok k f with
              | Lexer.Op ("<-" | ":=") -> has_mutation := true
              | Lexer.Ident s ->
                if
                  Lexer.has_comp s "Atomic" || Lexer.has_comp s "Mutex"
                  || Lexer.has_comp s "Condition"
                then has_sync := true
                else if depth < 6 then visit_name depth s
              | _ -> ()
            done
          and visit_name depth name =
            if not (Hashtbl.mem visited name) then begin
              Hashtbl.replace visited name ();
              List.iter
                (fun ((cf : Model.file), (cb : Model.binding)) ->
                  if cf.Model.m_path = f.Model.m_path then
                    visit_extent (depth + 1) (cb.Model.b_start, cb.Model.b_stop))
                (Model.resolve ix ~from_file:f name)
            end
          in
          List.iter (visit_extent 0) seed_extents;
          List.iter (visit_name 0) seed_names;
          if !has_mutation && not !has_sync then
            Ctx.emit ctx ~code:"S104" ~sev:Findings.Error ~path:f.Model.m_path ~line
              "Domain.spawn closure mutates captured state with no Mutex or Atomic \
               anywhere in its call tree — a cross-domain data race"
        | _ -> ()
      done)
    ctx.Ctx.c_files

let run ctx =
  let summary = summaries ctx.Ctx.c_index in
  let edges, orphan_waits, locked_somewhere = simulate ctx summary in
  report_cycles ctx edges;
  List.iter
    (fun (path, line, name) ->
      if not (Hashtbl.mem locked_somewhere name) then
        Ctx.emit ctx ~code:"S103" ~sev:Findings.Error ~path ~line
          (Printf.sprintf
             "Condition.wait on mutex %S, which no scanned code ever locks — the wait \
              can never be entered with its mutex held"
             name))
    orphan_waits;
  check_spawns ctx
