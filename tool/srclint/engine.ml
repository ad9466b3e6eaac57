(* Pass orchestration.

   [analyze] takes (virtual-path, content) pairs plus optional docs and
   returns the ranked finding list — tests feed it fixture files under
   fabricated paths. [run_repo] walks the real tree. The allowlist is
   applied last: a matching entry *downgrades* its finding to Info and
   records the written reason, so suppressed findings remain visible in
   the report instead of vanishing. *)

let passes : (Ctx.t -> unit) list =
  [
    Pass_concurrency.run; Pass_budget.run; Pass_meta.run; Pass_protocol.run; Pass_source.run;
  ]

let analyze ?(use_allowlist = true) ?(docs = []) sources =
  let files = List.map (fun (path, src) -> Model.load path src) sources in
  let ctx = Ctx.create ~files ~docs in
  List.iter (fun p -> p ctx) passes;
  let findings = ctx.Ctx.c_findings in
  let findings =
    if not use_allowlist then findings
    else begin
      (* S000: an allowlist entry without real prose is itself an error *)
      let hygiene =
        List.map
          (fun (e : Allowlist.entry) ->
            Findings.make ~code:"S000" ~sev:Findings.Error ~path:"tool/srclint/allowlist.ml"
              ~line:1
              ~msg:
                (Printf.sprintf
                   "allowlist entry (%s, %s) has no written reason — every suppression \
                    must cite why the code is safe" e.Allowlist.a_code e.Allowlist.a_path))
          (Allowlist.invalid_entries ())
      in
      let used = Hashtbl.create 8 in
      let findings =
        List.map
          (fun (f : Findings.t) ->
            match Allowlist.find f with
            | Some e when String.length (String.trim e.Allowlist.a_reason) >= 20 ->
              Hashtbl.replace used (e.Allowlist.a_code, e.Allowlist.a_path, e.Allowlist.a_hint) ();
              { f with Findings.f_sev = Findings.Info; f_note = e.Allowlist.a_reason }
            | _ -> f)
          findings
      in
      (* S001: an entry that matched nothing is a stale suppression *)
      let stale =
        List.filter_map
          (fun (e : Allowlist.entry) ->
            if
              Hashtbl.mem used (e.Allowlist.a_code, e.Allowlist.a_path, e.Allowlist.a_hint)
              || List.mem e (Allowlist.invalid_entries ())
            then None
            else
              Some
                (Findings.make ~code:"S001" ~sev:Findings.Warning
                   ~path:"tool/srclint/allowlist.ml" ~line:1
                   ~msg:
                     (Printf.sprintf
                        "allowlist entry (%s, %s, %S) matches no finding — stale \
                         suppressions must be deleted" e.Allowlist.a_code
                        e.Allowlist.a_path e.Allowlist.a_hint)))
          Allowlist.entries
      in
      hygiene @ stale @ findings
    end
  in
  (List.length files, List.sort Findings.compare findings)

(* --- repo walking ------------------------------------------------------ *)

let roots = [ "lib"; "bin"; "bench"; "test"; "tool"; "examples" ]
let doc_files = [ "README.md"; "DESIGN.md" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort compare entries;
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then
          if name = "_build" || name.[0] = '.' then acc else walk path acc
        else if Filename.check_suffix name ".ml" then path :: acc
        else acc)
      acc entries

(* [root] is the repo root; paths in findings are repo-relative. *)
let run_repo ?(use_allowlist = true) root =
  let sources =
    List.concat_map
      (fun r ->
        let dir = Filename.concat root r in
        if Sys.file_exists dir then
          List.rev_map (fun p -> (p, read_file (Filename.concat root p)))
            (walk dir [] |> List.rev_map (fun p ->
               (* strip the "root/" prefix back off *)
               let pre = root ^ "/" in
               if String.length p > String.length pre
                  && String.sub p 0 (String.length pre) = pre
               then String.sub p (String.length pre) (String.length p - String.length pre)
               else p))
        else [])
      roots
  in
  let docs =
    List.filter_map
      (fun d ->
        let p = Filename.concat root d in
        if Sys.file_exists p then Some (d, read_file p) else None)
      doc_files
  in
  analyze ~use_allowlist ~docs sources
