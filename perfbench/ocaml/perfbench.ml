(* The repository benchmark. One run: one workload, one seed, a fixed
   measuring time, either untraced (end-to-end metrics) or traced
   (per-layer metrics). The last line of standard output is the result:
   {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
   The line before it is a report with the work digest, the sample
   counts behind each percentile and the run's environment.

   Usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                        [--short] [--run-dir DIR] [--spans-out FILE] *)

module Json = Service.Json

let workloads =
  [
    ("solve_grid", Wl_solve.run ~policy:Joinopt.Optimizer.Ws_greedy);
    ("solve_portfolio", Wl_solve.run ~policy:Joinopt.Optimizer.Ws_portfolio);
    ("serve_mix", Wl_serve.run);
    ("decomp_wide", Wl_decomp.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (solve_grid|solve_portfolio|serve_mix|decomp_wide) --seed N \
     --seconds S --trace 0|1 [--short] [--run-dir DIR] [--spans-out FILE]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let short = ref false and run_dir = ref "." and spans_out = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0. then Some s else None);
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | "--short" :: rest ->
      short := true;
      go rest
    | "--run-dir" :: v :: rest ->
      run_dir := v;
      go rest
    | "--spans-out" :: v :: rest ->
      spans_out := Some v;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace ->
    ( run,
      { Run.workload = !workload; seed; seconds; trace; short = !short; run_dir = !run_dir },
      !spans_out )
  | _ -> usage ()

let environment () =
  let env k = match Sys.getenv_opt k with Some v -> Json.String v | None -> Json.Null in
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", env "PERFBENCH_COMMIT");
      ("OCAMLRUNPARAM", env "OCAMLRUNPARAM");
    ]

let () =
  let run, opts, spans_out = parse_args () in
  (* The library logs through Logs; a benchmark run stays quiet. *)
  Logs.set_level None;
  let r = run opts in
  Option.iter Tracer.write spans_out;
  let metrics = Util.metric_list r.Run.metrics in
  let nonfinite = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.eprintf "perfbench: metric %s is not finite\n" n) nonfinite;
  Option.iter (fun msg -> Printf.eprintf "perfbench: wrong output: %s\n" msg) r.Run.tally.Checks.first_wrong;
  Option.iter (fun msg -> Printf.eprintf "perfbench: failed: %s\n" msg) r.Run.tally.Checks.first_failure;
  let t = r.Run.tally in
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          ([
             ("workload", Json.String opts.Run.workload);
             ("seed", Json.Int opts.Run.seed);
             ("trace", Json.Bool opts.Run.trace);
           ]
          @ r.Run.report
          @ [ ("recovered", Json.Int r.Run.tally.Checks.recovered); ("environment", environment ()) ])));
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("correct", Json.Bool (t.Checks.wrong = 0 && nonfinite = []));
            ("attempted", Json.Int t.Checks.attempted);
            ("failed", Json.Int t.Checks.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]))
