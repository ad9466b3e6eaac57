(* srclint — multi-pass source analyzer.

   Usage: srclint_main [--json] [--no-allowlist] [ROOT]

   Scans lib/ bin/ bench/ test/ tool/ examples/ under ROOT (default ".")
   plus README.md/DESIGN.md for the protocol pass. Prints findings ranked
   by severity; exits 1 iff any Error-severity finding remains after the
   allowlist is applied, and 2 on an unknown flag or a ROOT with no .ml
   file to scan — a typo must never pass as a clean run. *)

let usage = "usage: srclint_main [--json] [--no-allowlist] [ROOT]"

let () =
  let json = ref false in
  let use_allowlist = ref true in
  let root = ref "." in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--json" -> json := true
        | "--no-allowlist" -> use_allowlist := false
        | "--help" | "-h" ->
          print_endline usage;
          exit 0
        | _ when String.length arg > 0 && arg.[0] = '-' ->
          Printf.eprintf "srclint: unknown option %s\n%s\n" arg usage;
          exit 2
        | _ -> root := arg)
    Sys.argv;
  let files, findings = Srclint.Engine.run_repo ~use_allowlist:!use_allowlist !root in
  if files = 0 then begin
    Printf.eprintf "srclint: no .ml files under %s (looked in %s)\n" !root
      (String.concat ", " Srclint.Engine.roots);
    exit 2
  end;
  let errors = Srclint.Findings.count Srclint.Findings.Error findings in
  if !json then print_endline (Srclint.Findings.render_json ~files findings)
  else begin
    List.iter (fun f -> print_endline (Srclint.Findings.render_text f)) findings;
    Printf.printf "srclint: %d files, %d errors, %d warnings, %d allowlisted/info\n" files
      errors
      (Srclint.Findings.count Srclint.Findings.Warning findings)
      (Srclint.Findings.count Srclint.Findings.Info findings)
  end;
  exit (if errors > 0 then 1 else 0)
