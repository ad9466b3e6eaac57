type severity = Error | Warn | Info

type diagnostic = {
  d_code : string;
  d_severity : severity;
  d_subject : string;
  d_message : string;
}

type stats = {
  s_rows : int;
  s_cols : int;
  s_nonzeros : int;
  s_binaries : int;
  s_integers : int;
  s_coeff_min : float;
  s_coeff_max : float;
  s_scaled_coeff_min : float;
  s_scaled_coeff_max : float;
}

type report = { diagnostics : diagnostic list; stats : stats }

type level = Off | Standard | Strict

type config = {
  cond_threshold : float;
  bigm_rel_slack : float;
  max_propagation_passes : int;
  structure : bool;
  tol : float;
}

let default_config =
  {
    cond_threshold = 1e10;
    bigm_rel_slack = 0.05;
    max_propagation_passes = 3;
    structure = true;
    tol = 1e-9;
  }

let level_of_strict strict = if strict then Strict else Standard

let severity_rank = function Error -> 0 | Warn -> 1 | Info -> 2

let severity_to_string = function Error -> "error" | Warn -> "warn" | Info -> "info"

(* ------------------------------------------------------------------ *)
(* Activity bounds with explicit infinity accounting                    *)
(* ------------------------------------------------------------------ *)

(* A directed activity bound is kept as (finite part, number of infinite
   contributions); subtracting one term's contribution — needed when
   propagating onto that term's variable — then stays exact. *)
type activity = { fin : float; inf : int }

let act_total a = if a.inf > 0 then None else Some a.fin

(* Activity of a row minus variable [v]'s contribution; [None] = infinite. *)
let act_without a contrib =
  if Float.is_finite contrib then if a.inf > 0 then None else Some (a.fin -. contrib)
  else if a.inf > 1 then None
  else Some a.fin

let min_contrib lb ub c = if c > 0. then c *. lb else c *. ub

let max_contrib lb ub c = if c > 0. then c *. ub else c *. lb

let row_activity ~lb ~ub terms =
  let amin = ref { fin = 0.; inf = 0 } and amax = ref { fin = 0.; inf = 0 } in
  Array.iter
    (fun (v, c) ->
      let lo = min_contrib lb.(v) ub.(v) c and hi = max_contrib lb.(v) ub.(v) c in
      (amin :=
         if Float.is_finite lo then { !amin with fin = !amin.fin +. lo }
         else { !amin with inf = !amin.inf + 1 });
      amax :=
        if Float.is_finite hi then { !amax with fin = !amax.fin +. hi }
        else { !amax with inf = !amax.inf + 1 })
    terms;
  (!amin, !amax)

(* ------------------------------------------------------------------ *)
(* The analyzer                                                         *)
(* ------------------------------------------------------------------ *)

type ctx = { problem : Problem.t; config : config; mutable diags : diagnostic list }

let emit ctx code severity subject fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.diags <-
        { d_code = code; d_severity = severity; d_subject = subject; d_message = msg }
        :: ctx.diags)
    fmt

(* Subject string listing up to five names. *)
let subjects names =
  let shown = List.filteri (fun i _ -> i < 5) names in
  let extra = List.length names - List.length shown in
  String.concat ", " shown ^ if extra > 0 then Printf.sprintf " (+%d more)" extra else ""

let rel_tol tol x = tol *. Float.max 1. (abs_float x)

(* --- L103: non-finite data ----------------------------------------- *)

let check_finite ctx rows =
  let clean = ref true in
  let bad code subject fmt =
    clean := false;
    emit ctx code Error subject fmt
  in
  Problem.iter_vars
    (fun _ info ->
      if Float.is_nan info.Problem.v_lb || Float.is_nan info.Problem.v_ub then
        bad "L103" info.Problem.v_name "variable bound is NaN")
    ctx.problem;
  Array.iter
    (fun (name, terms, _sense, rhs) ->
      if not (Float.is_finite rhs) then bad "L103" name "right-hand side %g is not finite" rhs;
      Array.iter
        (fun (v, c) ->
          if not (Float.is_finite c) then
            bad "L103" name "coefficient %g on %s is not finite" c
              (Problem.var_info ctx.problem v).Problem.v_name)
        terms)
    rows;
  let _, obj = Problem.objective ctx.problem in
  List.iter
    (fun (v, c) ->
      if not (Float.is_finite c) then
        bad "L103"
          (Problem.var_info ctx.problem v).Problem.v_name
          "objective coefficient %g is not finite" c)
    (Linexpr.terms obj);
  !clean

(* --- Interval propagation ------------------------------------------ *)

(* One-directional bound tightening from row activities. Derived bounds
   are relaxed by a small epsilon before they are installed so that
   accumulated float error can never manufacture an infeasibility that
   the exact model does not have. *)
let propagate ctx rows lb ub =
  let p = ctx.problem in
  let n = Problem.num_vars p in
  let integer = Array.make n false in
  Problem.iter_vars
    (fun v info ->
      integer.(v) <-
        (match info.Problem.v_kind with
        | Problem.Integer | Problem.Binary -> true
        | Problem.Continuous -> false))
    p;
  let eps x = 1e-9 *. Float.max 1. (abs_float x) in
  let changed = ref true and pass = ref 0 in
  while !changed && !pass < ctx.config.max_propagation_passes do
    changed := false;
    incr pass;
    Array.iter
      (fun (_name, terms, sense, rhs) ->
        if Array.length terms > 0 then begin
          let amin, amax = row_activity ~lb ~ub terms in
          (* Integer bounds round in floats: a trip through [int] wraps
             a derived bound beyond [max_int] to a negative one. *)
          let tighten_ub v b =
            let b = if integer.(v) then Float.floor (b +. 1e-6) else b in
            let b = b +. eps b in
            if b < ub.(v) -. eps b then begin
              ub.(v) <- Float.max b lb.(v);
              changed := true
            end
          in
          let tighten_lb v b =
            let b = if integer.(v) then Float.ceil (b -. 1e-6) else b in
            let b = b -. eps b in
            if b > lb.(v) +. eps b then begin
              lb.(v) <- Float.min b ub.(v);
              changed := true
            end
          in
          (* sum_rest + c x <= rhs  (from Le / Eq rows) *)
          let from_le () =
            Array.iter
              (fun (v, c) ->
                match act_without amin (min_contrib lb.(v) ub.(v) c) with
                | None -> ()
                | Some rest ->
                  let b = (rhs -. rest) /. c in
                  if c > 0. then tighten_ub v b else tighten_lb v b)
              terms
          in
          (* sum_rest + c x >= rhs  (from Ge / Eq rows) *)
          let from_ge () =
            Array.iter
              (fun (v, c) ->
                match act_without amax (max_contrib lb.(v) ub.(v) c) with
                | None -> ()
                | Some rest ->
                  let b = (rhs -. rest) /. c in
                  if c > 0. then tighten_lb v b else tighten_ub v b)
              terms
          in
          match sense with
          | Problem.Le -> from_le ()
          | Problem.Ge -> from_ge ()
          | Problem.Eq ->
            from_le ();
            from_ge ()
        end)
      rows
  done

(* --- L101 / L102 / L202: row feasibility and redundancy ------------- *)

let check_rows ctx rows lb ub =
  let tol = ctx.config.tol in
  Array.iter
    (fun (name, terms, sense, rhs) ->
      let t = rel_tol tol rhs in
      if Array.length terms = 0 then begin
        let feasible =
          match sense with
          | Problem.Le -> 0. <= rhs +. t
          | Problem.Ge -> 0. >= rhs -. t
          | Problem.Eq -> abs_float rhs <= t
        in
        if feasible then
          emit ctx "L202" Warn name "empty row: all coefficients cancelled; 0 %s %g holds vacuously"
            (match sense with Problem.Le -> "<=" | Problem.Ge -> ">=" | Problem.Eq -> "=")
            rhs
        else emit ctx "L101" Error name "empty row is infeasible: 0 %s %g is false"
            (match sense with Problem.Le -> "<=" | Problem.Ge -> ">=" | Problem.Eq -> "=")
            rhs
      end
      else begin
        let amin, amax = row_activity ~lb ~ub terms in
        let minact = act_total amin and maxact = act_total amax in
        (* amin.inf counts -inf contributions, amax.inf counts +inf. *)
        let infeasible =
          match sense with
          | Problem.Le -> ( match minact with Some m -> m > rhs +. t | None -> false)
          | Problem.Ge -> ( match maxact with Some m -> m < rhs -. t | None -> false)
          | Problem.Eq -> (
            (match minact with Some m -> m > rhs +. t | None -> false)
            || match maxact with Some m -> m < rhs -. t | None -> false)
        in
        if infeasible then
          emit ctx "L101" Error name
            "trivially infeasible under propagated bounds (activity in [%s, %s], rhs %g)"
            (match minact with Some m -> Printf.sprintf "%g" m | None -> "-inf")
            (match maxact with Some m -> Printf.sprintf "%g" m | None -> "+inf")
            rhs
        else begin
          let redundant =
            match sense with
            | Problem.Le -> ( match maxact with Some m -> m <= rhs +. t | None -> false)
            | Problem.Ge -> ( match minact with Some m -> m >= rhs -. t | None -> false)
            | Problem.Eq -> (
              match (minact, maxact) with
              | Some lo, Some hi -> lo >= rhs -. t && hi <= rhs +. t
              | _ -> false)
          in
          if redundant then
            emit ctx "L102" Warn name
              "always slack: satisfied by every point in the bound box (activity in [%s, %s], rhs %g)"
              (match minact with Some m -> Printf.sprintf "%g" m | None -> "-inf")
              (match maxact with Some m -> Printf.sprintf "%g" m | None -> "+inf")
              rhs
        end
      end)
    rows

(* --- L201: dangling columns ---------------------------------------- *)

let check_dangling ctx rows =
  let p = ctx.problem in
  let used = Array.make (Problem.num_vars p) false in
  Array.iter (fun (_, terms, _, _) -> Array.iter (fun (v, _) -> used.(v) <- true) terms) rows;
  let _, obj = Problem.objective p in
  List.iter (fun (v, _) -> used.(v) <- true) (Linexpr.terms obj);
  let dangling = ref [] in
  Problem.iter_vars
    (fun v info -> if not used.(v) then dangling := info.Problem.v_name :: !dangling)
    p;
  let dangling = List.rev !dangling in
  if dangling <> [] then
    emit ctx "L201" Warn (subjects dangling)
      "%d dangling column(s): not referenced by any row or the objective"
      (List.length dangling)

(* --- L203: duplicate rows ------------------------------------------ *)

let check_duplicates ctx rows =
  let seen = Hashtbl.create 256 in
  let dups = ref [] in
  Array.iter
    (fun (name, terms, sense, rhs) ->
      if Array.length terms > 0 then begin
        let buf = Buffer.create 64 in
        Array.iter (fun (v, c) -> Buffer.add_string buf (Printf.sprintf "%d:%.17g;" v c)) terms;
        Buffer.add_string buf
          (Printf.sprintf "%s%.17g"
             (match sense with Problem.Le -> "<" | Problem.Ge -> ">" | Problem.Eq -> "=")
             rhs);
        let key = Buffer.contents buf in
        match Hashtbl.find_opt seen key with
        | Some first -> dups := Printf.sprintf "%s (= %s)" name first :: !dups
        | None -> Hashtbl.add seen key name
      end)
    rows;
  let dups = List.rev !dups in
  if dups <> [] then
    emit ctx "L203" Warn (subjects dups) "%d duplicate row(s): identical terms, sense and rhs"
      (List.length dups)

(* --- L301: per-row coefficient range -------------------------------- *)

(* Judged on the equilibrated matrix — the range the simplex actually
   faces. The raw staircase rows of a join-order encoding legitimately
   span 12+ orders of magnitude (deltas cover the cardinality range);
   that is precisely what Stdform's scaling absorbs, so flagging raw
   ranges would warn on every correct encoding. A row whose ratio
   survives equilibration is the real conditioning hazard. *)
let check_coeff_range ctx rows stdform =
  match stdform with
  | None -> ()
  | Some st ->
    let nrows = Array.length rows in
    let lo = Array.make nrows infinity and hi = Array.make nrows 0. in
    for k = 0 to st.Stdform.col_start.(st.Stdform.nstruct) - 1 do
      let i = st.Stdform.row_idx.(k) and v = abs_float st.Stdform.value.(k) in
      if v > 0. then begin
        if v < lo.(i) then lo.(i) <- v;
        if v > hi.(i) then hi.(i) <- v
      end
    done;
    Array.iteri
      (fun i (name, terms, _, _) ->
        if Array.length terms > 1 && hi.(i) > 0.
           && hi.(i) /. lo.(i) > ctx.config.cond_threshold then
          emit ctx "L301" Warn name
            "equilibrated coefficient range %.2e .. %.2e (ratio %.1e) exceeds conditioning threshold %.0e"
            lo.(i) hi.(i)
            (hi.(i) /. lo.(i))
            ctx.config.cond_threshold)
      rows

(* --- L302 / L303 / L305: big-M audit -------------------------------- *)

(* A candidate is a Le/Ge row with exactly one binary-variable term and at
   least one other term. Writing the two effective right-hand sides
   (binary at 0 and at 1), the span between the relaxed and the enforced
   state is the provided big-M; the span the operand bounds require to
   make the relaxed state vacuous is the needed big-M. Audited against
   the *declared* bounds — the contract a generator derives its constant
   from; the propagated-bounds comparison is only an optimization hint
   (L305), because per-row interval reasoning cannot see the companion
   rows that make a smaller constant valid. *)
let audit_bigm ctx rows lb0 ub0 lbp ubp =
  let p = ctx.problem in
  let tol = ctx.config.tol in
  let is_binary v =
    match (Problem.var_info p v).Problem.v_kind with
    | Problem.Binary -> true
    | Problem.Integer | Problem.Continuous -> false
  in
  let tightenable = ref 0 and max_gain = ref 0. in
  Array.iter
    (fun (name, terms, sense, rhs) ->
      match sense with
      | Problem.Eq -> ()
      | Problem.Le | Problem.Ge ->
        let binaries = Array.to_list terms |> List.filter (fun (v, _) -> is_binary v) in
        (match binaries with
        | [ (bv, c) ] when Array.length terms >= 2 ->
          let rest = Array.of_list (Array.to_list terms |> List.filter (fun (v, _) -> v <> bv)) in
          let needed ~lb ~ub =
            (* Effective rhs at b = 0 and b = 1; the relaxed state is the
               weaker of the two. *)
            let rhs0 = rhs and rhs1 = rhs -. c in
            let amin, amax = row_activity ~lb ~ub rest in
            match sense with
            | Problem.Le ->
              let enforced = Float.min rhs0 rhs1 in
              (match act_total amax with
              | None -> None
              | Some hi -> Some (hi -. enforced))
            | Problem.Ge ->
              let enforced = Float.max rhs0 rhs1 in
              (match act_total amin with
              | None -> None
              | Some lo -> Some (enforced -. lo))
            | Problem.Eq -> None
          in
          let provided = abs_float c in
          (match needed ~lb:lb0 ~ub:ub0 with
          | None -> ()
          | Some need when need <= rel_tol tol rhs -> ()
          | Some need ->
            if provided < need -. rel_tol tol need then begin
              (* Only flag spans that look like an attempted big-M; a
                 genuinely small structural coefficient stays silent. *)
              if provided >= 0.5 *. need then
                emit ctx "L302" Error name
                  "insufficient big-M on %s: span %g < required %g — the relaxed state still cuts feasible points"
                  (Problem.var_info p bv).Problem.v_name provided need
            end
            else if provided > need *. (1. +. ctx.config.bigm_rel_slack) +. rel_tol tol need
            then
              emit ctx "L303" Warn name
                "loose big-M on %s: span %g exceeds the %g the declared bounds require"
                (Problem.var_info p bv).Problem.v_name provided need
            else begin
              (* Sufficient and tight against declared bounds; see if
                 propagation proves a smaller constant valid. *)
              match needed ~lb:lbp ~ub:ubp with
              | Some needp
                when needp > rel_tol tol rhs
                     && provided > needp *. (1. +. ctx.config.bigm_rel_slack) ->
                incr tightenable;
                max_gain := Float.max !max_gain (provided -. needp)
              | _ -> ()
            end)
        | _ -> ()))
    rows;
  if !tightenable > 0 then
    emit ctx "L305" Info ""
      "%d big-M span(s) tightenable under propagated bounds (largest reduction %g)" !tightenable
      !max_gain

(* --- L304: constant objective --------------------------------------- *)

let check_objective ctx =
  let _, obj = Problem.objective ctx.problem in
  if Linexpr.terms obj = [] then
    emit ctx "L304" Info "" "objective is constant: every feasible point is optimal"

(* ------------------------------------------------------------------ *)
(* Paper-invariant structural checks (metadata-keyed)                   *)
(* ------------------------------------------------------------------ *)

type meta_row = { m_terms : (int * float) list; m_sense : Problem.sense; m_rhs : float }

let structure_checks ctx rows =
  let p = ctx.problem in
  match Problem.find_meta p "joinopt.tables" with
  | None -> ()
  | Some tables_s ->
    let malformed = ref false in
    let meta_int key =
      match Problem.find_meta p key with
      | None -> None
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some v -> Some v
        | None ->
          malformed := true;
          emit ctx "L400" Error key "metadata value %S is not an integer" s;
          None)
    in
    let split c s = if s = "" then [] else String.split_on_char c s in
    let row_index = Hashtbl.create 256 in
    Array.iter
      (fun (name, terms, sense, rhs) ->
        if not (Hashtbl.mem row_index name) then
          Hashtbl.add row_index name
            { m_terms = Array.to_list terms; m_sense = sense; m_rhs = rhs })
      rows;
    let missing_rows = Hashtbl.create 8 in
    let add_missing code what =
      let cur = try Hashtbl.find missing_rows code with Not_found -> [] in
      Hashtbl.replace missing_rows code (what :: cur)
    in
    let require_row code ?sense ?rhs ?nterms ?unit_coeffs name =
      match Hashtbl.find_opt row_index name with
      | None -> add_missing code (name ^ " [missing]")
      | Some r ->
        let shape_ok =
          (match sense with Some s -> r.m_sense = s | None -> true)
          && (match rhs with Some v -> abs_float (r.m_rhs -. v) <= 1e-6 | None -> true)
          && (match nterms with Some k -> List.length r.m_terms = k | None -> true)
          &&
          match unit_coeffs with
          | Some true -> List.for_all (fun (_, c) -> abs_float (c -. 1.) <= 1e-9) r.m_terms
          | _ -> true
        in
        if not shape_ok then add_missing code (name ^ " [mis-shaped]")
    in
    let require_var code name =
      match Problem.var_by_name p name with
      | Some _ -> ()
      | None -> add_missing code (name ^ " [missing column]")
    in
    let row_coeff name var_name =
      match (Hashtbl.find_opt row_index name, Problem.var_by_name p var_name) with
      | Some r, Some v -> List.assoc_opt v r.m_terms
      | _ -> None
    in
    (match (meta_int "joinopt.tables", meta_int "joinopt.joins") with
    | Some n, Some joins when n >= 2 && joins = n - 1 ->
      let formulation =
        match Problem.find_meta p "joinopt.formulation" with
        | Some "reduced" -> `Reduced
        | Some "full-paper" -> `Full
        | Some s ->
          malformed := true;
          emit ctx "L400" Error "joinopt.formulation" "unknown formulation %S" s;
          `Reduced
        | None -> `Reduced
      in
      (* --- L401: join-order structure -------------------------------- *)
      require_row "L401" ~sense:Problem.Eq ~rhs:1. ~nterms:n ~unit_coeffs:true "outer0_single";
      for j = 0 to joins - 1 do
        require_row "L401" ~sense:Problem.Eq ~rhs:1. ~nterms:n ~unit_coeffs:true
          (Printf.sprintf "inner%d_single" j)
      done;
      (match formulation with
      | `Reduced ->
        for t = 0 to n - 1 do
          require_row "L401" ~sense:Problem.Le ~rhs:1. ~nterms:(joins + 1) ~unit_coeffs:true
            (Printf.sprintf "at_most_once_t%d" t)
        done
      | `Full ->
        for j = 0 to joins - 1 do
          for t = 0 to n - 1 do
            require_row "L401" ~sense:Problem.Le ~rhs:1.
              (Printf.sprintf "no_overlap_t%d_j%d" t j)
          done
        done;
        for j = 1 to joins - 1 do
          for t = 0 to n - 1 do
            require_row "L401" ~sense:Problem.Eq ~rhs:0. (Printf.sprintf "chain_t%d_j%d" t j)
          done
        done);
      (* --- L402: cardinality and selectivity links ------------------- *)
      let preds =
        match
          (Problem.find_meta p "joinopt.pred_tables", Problem.find_meta p "joinopt.log10_sels")
        with
        | Some pt, Some ls ->
          let tables_of =
            List.map
              (fun grp -> List.filter_map int_of_string_opt (split ',' grp))
              (split ';' pt)
          in
          let sels = List.filter_map float_of_string_opt (split ';' ls) in
          if List.length tables_of <> List.length sels then begin
            malformed := true;
            emit ctx "L400" Error "joinopt.pred_tables"
              "pred_tables declares %d predicate(s) but log10_sels %d"
              (List.length tables_of) (List.length sels);
            []
          end
          else List.combine tables_of sels
        | _ -> []
      in
      let thresholds = match meta_int "joinopt.thresholds" with Some l -> l | None -> 0 in
      for j = 0 to joins - 1 do
        require_row "L402" ~sense:Problem.Eq (Printf.sprintf "ci_def_j%d" j)
      done;
      for j = 1 to joins - 1 do
        require_row "L402" ~sense:Problem.Eq (Printf.sprintf "lco_def_j%d" j);
        require_row "L402" ~sense:Problem.Eq (Printf.sprintf "co_def_j%d" j);
        for r = 0 to thresholds - 1 do
          require_row "L402" ~sense:Problem.Le (Printf.sprintf "cto_def_r%d_j%d" r j)
        done;
        List.iteri
          (fun pi (ptables, sel) ->
            List.iter
              (fun t ->
                require_row "L402" ~sense:Problem.Le
                  (Printf.sprintf "applicable_p%d_t%d_j%d" pi t j))
              ptables;
            if abs_float sel > 1e-12 then begin
              let row = Printf.sprintf "lco_def_j%d" j in
              match row_coeff row (Printf.sprintf "pao_p%d_j%d" pi j) with
              | Some c when abs_float (c -. sel) <= rel_tol 1e-6 sel -> ()
              | Some c ->
                add_missing "L402"
                  (Printf.sprintf "%s [pao_p%d coeff %g, declared log10 sel %g]" row pi c sel)
              | None -> add_missing "L402" (Printf.sprintf "%s [no pao_p%d_j%d term]" row pi j)
            end)
          preds
      done;
      (* --- L403: expensive-predicate extension ----------------------- *)
      (match Problem.find_meta p "joinopt.ext.expensive" with
      | None -> ()
      | Some priced_s ->
        let priced = List.filter_map int_of_string_opt (split ',' priced_s) in
        for j = 0 to joins - 1 do
          require_var "L403" (Printf.sprintf "lcob_j%d" j);
          require_var "L403" (Printf.sprintf "cob_j%d" j);
          require_row "L403" ~sense:Problem.Eq (Printf.sprintf "lcob_def_j%d" j);
          require_row "L403" ~sense:Problem.Eq (Printf.sprintf "cob_def_j%d" j);
          for r = 0 to thresholds - 1 do
            require_row "L403" ~sense:Problem.Le (Printf.sprintf "ctob_def_r%d_j%d" r j)
          done;
          List.iter
            (fun pi ->
              require_var "L403" (Printf.sprintf "pco_p%d_j%d" pi j);
              require_var "L403" (Printf.sprintf "evalq_p%d_j%d" pi j);
              require_row "L403" ~sense:Problem.Eq (Printf.sprintf "pco_def_p%d_j%d" pi j))
            priced
        done);
      (* --- L404: join-orders extension -------------------------------- *)
      (match meta_int "joinopt.ext.orders" with
      | None -> ()
      | Some nv ->
        for j = 0 to joins - 1 do
          require_row "L404" ~sense:Problem.Eq ~rhs:1. ~nterms:nv ~unit_coeffs:true
            (Printf.sprintf "one_variant_j%d" j);
          require_var "L404" (Printf.sprintf "ohp_j%d" j);
          for i = 0 to nv - 1 do
            require_var "L404" (Printf.sprintf "jos_j%d_v%d" j i);
            require_var "L404" (Printf.sprintf "pjc_j%d_v%d" j i);
            require_row "L404" ~sense:Problem.Eq (Printf.sprintf "pjc_def_j%d_v%d" j i)
          done
        done);
      (* --- L405: projection extension ---------------------------------- *)
      (match meta_int "joinopt.ext.projection" with
      | None -> ()
      | Some nl ->
        for j = 1 to joins - 1 do
          for l = 0 to nl - 1 do
            require_var "L405" (Printf.sprintf "clo_l%d_j%d" l j);
            require_row "L405" ~sense:Problem.Le (Printf.sprintf "col_table_l%d_j%d" l j)
          done
        done)
    | Some n, Some joins ->
      malformed := true;
      emit ctx "L400" Error "joinopt.joins" "inconsistent declaration: %d tables, %d joins" n
        joins
    | _ ->
      if not !malformed then
        emit ctx "L400" Error "joinopt.tables" "metadata value %S is unusable" tables_s);
    Hashtbl.iter
      (fun code what ->
        let what = List.rev what in
        let kind =
          match code with
          | "L401" -> "join-order structure"
          | "L402" -> "selectivity/cardinality linking"
          | "L403" -> "expensive-predicate extension"
          | "L404" -> "join-orders extension"
          | "L405" -> "projection extension"
          | _ -> "structure"
        in
        emit ctx code Error (subjects what) "%s broken: %d declared row(s)/column(s) violated"
          kind (List.length what))
      missing_rows

(* ------------------------------------------------------------------ *)
(* Statistics and driver                                                *)
(* ------------------------------------------------------------------ *)

let compute_stats p rows stdform =
  let nonzeros = Array.fold_left (fun acc (_, t, _, _) -> acc + Array.length t) 0 rows in
  let binaries = ref 0 and integers = ref 0 in
  Problem.iter_vars
    (fun _ info ->
      match info.Problem.v_kind with
      | Problem.Binary -> incr binaries
      | Problem.Integer -> incr integers
      | Problem.Continuous -> ())
    p;
  let lo = ref infinity and hi = ref 0. in
  Array.iter
    (fun (_, terms, _, _) ->
      Array.iter
        (fun (_, c) ->
          let a = abs_float c in
          if a > 0. && Float.is_finite a then begin
            if a < !lo then lo := a;
            if a > !hi then hi := a
          end)
        terms)
    rows;
  let coeff_min, coeff_max = if !hi = 0. then (0., 0.) else (!lo, !hi) in
  let scaled_min, scaled_max =
    match stdform with None -> (0., 0.) | Some st -> Stdform.coeff_range st
  in
  {
    s_rows = Problem.num_constrs p;
    s_cols = Problem.num_vars p;
    s_nonzeros = nonzeros;
    s_binaries = !binaries;
    s_integers = !integers;
    s_coeff_min = coeff_min;
    s_coeff_max = coeff_max;
    s_scaled_coeff_min = scaled_min;
    s_scaled_coeff_max = scaled_max;
  }

let analyze ?(config = default_config) p =
  let rows =
    Array.init (Problem.num_constrs p) (fun i ->
        let c = Problem.constr_info p i in
        (c.Problem.c_name, Array.of_list (Linexpr.terms c.Problem.c_expr), c.Problem.c_sense,
         c.Problem.c_rhs))
  in
  let ctx = { problem = p; config; diags = [] } in
  let finite = check_finite ctx rows in
  let stdform =
    let nonzeros = Array.exists (fun (_, t, _, _) -> Array.length t > 0) rows in
    if finite && Problem.num_vars p > 0 && nonzeros then Some (Stdform.of_problem p) else None
  in
  if finite then begin
    let n = Problem.num_vars p in
    let lb0 = Array.make n 0. and ub0 = Array.make n 0. in
    Problem.iter_vars
      (fun v info ->
        lb0.(v) <- info.Problem.v_lb;
        ub0.(v) <- info.Problem.v_ub)
      p;
    let lbp = Array.copy lb0 and ubp = Array.copy ub0 in
    propagate ctx rows lbp ubp;
    check_rows ctx rows lbp ubp;
    audit_bigm ctx rows lb0 ub0 lbp ubp
  end;
  check_dangling ctx rows;
  check_duplicates ctx rows;
  check_coeff_range ctx rows stdform;
  check_objective ctx;
  if config.structure then structure_checks ctx rows;
  let diagnostics =
    List.stable_sort
      (fun a b -> compare (severity_rank a.d_severity) (severity_rank b.d_severity))
      (List.rev ctx.diags)
  in
  { diagnostics; stats = compute_stats p rows stdform }

let errors r =
  List.length (List.filter (fun d -> d.d_severity = Error) r.diagnostics)

let warnings r =
  List.length (List.filter (fun d -> d.d_severity = Warn) r.diagnostics)

let failed level r =
  match level with
  | Off -> false
  | Standard -> errors r > 0
  | Strict -> errors r > 0 || warnings r > 0

let pp_diagnostic fmt d =
  Format.fprintf fmt "%s %-5s %s%s%s" d.d_code
    (severity_to_string d.d_severity)
    d.d_subject
    (if d.d_subject = "" then "" else ": ")
    d.d_message

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>model: %d rows, %d cols (%d bin, %d int), %d nonzeros; |coeff| %g..%g (scaled %g..%g)"
    r.stats.s_rows r.stats.s_cols r.stats.s_binaries r.stats.s_integers r.stats.s_nonzeros
    r.stats.s_coeff_min r.stats.s_coeff_max r.stats.s_scaled_coeff_min
    r.stats.s_scaled_coeff_max;
  List.iter (fun d -> Format.fprintf fmt "@,%a" pp_diagnostic d) r.diagnostics;
  Format.fprintf fmt "@]"
