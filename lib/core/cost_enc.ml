module Problem = Milp.Problem
module Linexpr = Milp.Linexpr
module Linearize = Milp.Linearize
module Cost_model = Relalg.Cost_model
module Plan = Relalg.Plan

type spec =
  | Cout
  | Fixed_operator of Plan.operator
  | Choose_operator of Plan.operator list

let spec_to_string = function
  | Cout -> "cout"
  | Fixed_operator op -> "fixed-" ^ Plan.operator_to_string op
  | Choose_operator ops ->
    "choose-" ^ String.concat "/" (List.map Plan.operator_to_string ops)

type bnl_aux = {
  blocks : Problem.var array;  (* per join *)
  y : Problem.var array array;  (* [j][t] = tii * blocks products *)
}

type aux =
  | No_aux
  | Bnl of bnl_aux
  | Choose of {
      ops : Plan.operator array;
      jos : Problem.var array array;  (* [j][i] *)
      pjc : Problem.var array array;
      ajc : Problem.var array array;
      bnl : bnl_aux option;
    }

type t = { enc : Encoding.t; spec : spec; pm : Cost_model.page_model; aux : aux }

let encoding c = c.enc
let spec c = c.spec
let page_model c = c.pm

(* ------------------------------------------------------------------ *)
(* Cost functions of the cardinality (monotone, zero at zero)           *)
(* ------------------------------------------------------------------ *)

let ceil_log2 x = if x <= 1. then 0. else ceil (log x /. log 2.)

let g_pages pm c = Cost_model.pages pm c

let g_smj pm c =
  let pg = Cost_model.pages pm c in
  (2. *. pg *. ceil_log2 pg) +. pg

let g_blocks pm c =
  let pg = Cost_model.pages pm c in
  if Float.compare pg 0. = 0 then 0. else ceil (pg /. pm.Cost_model.buffer_pages)

(* ------------------------------------------------------------------ *)
(* Linear expressions for operand quantities                            *)
(* ------------------------------------------------------------------ *)

(* Exact: sum of g(card_t) over the single selected table. *)
let inner_expr enc g j =
  Linexpr.of_terms
    (Array.to_list
       (Array.mapi (fun t v -> (v, g enc.Encoding.effective_card.(t))) enc.Encoding.tii.(j)))

(* Outer of join 0 is a single table: exact over the tio selectors.
   Later outers: threshold staircase. *)
let outer_expr enc g j =
  if j = 0 then
    Linexpr.of_terms
      (Array.to_list
         (Array.mapi (fun t v -> (v, g enc.Encoding.effective_card.(t))) enc.Encoding.tio.(0)))
  else begin
    let levels = Thresholds.levels enc.Encoding.ladder g in
    Linexpr.of_terms
      (Array.to_list (Array.mapi (fun r v -> (v, levels.(r))) enc.Encoding.cto.(j)))
  end

(* Upper bound of g over any outer operand: the top staircase step or any
   single table. *)
let outer_upper_bound enc g =
  let ladder = enc.Encoding.ladder in
  let top =
    ladder.Thresholds.step_factor
    *. ladder.Thresholds.thetas.(Thresholds.num_thresholds ladder - 1)
  in
  Array.fold_left (fun acc c -> max acc (g c)) (g top) enc.Encoding.effective_card

let inner_upper_bound enc g =
  Array.fold_left (fun acc c -> max acc (g c)) 0. enc.Encoding.effective_card

(* ------------------------------------------------------------------ *)
(* Block-nested-loop auxiliary structure (the paper's Section 4.3        *)
(* "second idea": one product per table selector)                        *)
(* ------------------------------------------------------------------ *)

let build_bnl_aux enc pm =
  let p = enc.Encoding.problem in
  let n = Relalg.Query.num_tables enc.Encoding.query in
  let bmax = outer_upper_bound enc (g_blocks pm) in
  let blocks =
    Array.init enc.Encoding.num_joins (fun j ->
        let v = Problem.add_var p ~name:(Printf.sprintf "blocks_j%d" j) ~lb:0. ~ub:bmax () in
        Problem.add_constr p
          ~name:(Printf.sprintf "blocks_def_j%d" j)
          (Linexpr.sub (Linexpr.var v) (outer_expr enc (g_blocks pm) j))
          Problem.Eq 0.;
        v)
  in
  let y =
    Array.init enc.Encoding.num_joins (fun j ->
        Array.init n (fun t ->
            Linearize.product_binary_continuous p
              ~name:(Printf.sprintf "bnl_y_t%d_j%d" t j)
              ~binary:enc.Encoding.tii.(j).(t) ~continuous:blocks.(j) ~lb:0. ~ub:bmax ()))
  in
  { blocks; y }

let bnl_cost_expr enc pm aux j =
  Linexpr.of_terms
    (Array.to_list
       (Array.mapi
          (fun t v -> (v, g_pages pm enc.Encoding.effective_card.(t)))
          aux.y.(j)))

(* ------------------------------------------------------------------ *)
(* Per-operator cost expressions                                        *)
(* ------------------------------------------------------------------ *)

let operator_cost_expr enc pm bnl_aux op j =
  match (op : Plan.operator) with
  | Plan.Hash_join ->
    Linexpr.scale 3.
      (Linexpr.add (outer_expr enc (g_pages pm) j) (inner_expr enc (g_pages pm) j))
  | Plan.Sort_merge_join ->
    Linexpr.add (outer_expr enc (g_smj pm) j) (inner_expr enc (g_smj pm) j)
  | Plan.Block_nested_loop -> (
    match bnl_aux with
    | Some aux -> bnl_cost_expr enc pm aux j
    | None -> invalid_arg "Cost_enc: BNL cost requires the product auxiliaries")

let operator_cost_bound enc pm op =
  match (op : Plan.operator) with
  | Plan.Hash_join ->
    3. *. (outer_upper_bound enc (g_pages pm) +. inner_upper_bound enc (g_pages pm))
  | Plan.Sort_merge_join ->
    outer_upper_bound enc (g_smj pm) +. inner_upper_bound enc (g_smj pm)
  | Plan.Block_nested_loop ->
    outer_upper_bound enc (g_blocks pm) *. inner_upper_bound enc (g_pages pm)

(* ------------------------------------------------------------------ *)
(* Installation                                                         *)
(* ------------------------------------------------------------------ *)

(* Final result cardinality: all tables and all (encoded) predicates. *)
let final_card enc =
  let logc =
    Array.fold_left (fun acc c -> acc +. log10 c) 0. enc.Encoding.effective_card
    +. Array.fold_left ( +. ) 0. enc.Encoding.log10_sels
  in
  10. ** logc

let install ?(pm = Cost_model.default_page_model) enc spec =
  let p = enc.Encoding.problem in
  let aux, objective =
    match spec with
    | Cout ->
      let terms = ref [] in
      for j = 1 to enc.Encoding.num_joins - 1 do
        terms := (enc.Encoding.co.(j), 1.) :: !terms
      done;
      (No_aux, Linexpr.of_terms ~const:(final_card enc) !terms)
    | Fixed_operator Plan.Block_nested_loop ->
      let aux = build_bnl_aux enc pm in
      let obj = ref Linexpr.zero in
      for j = 0 to enc.Encoding.num_joins - 1 do
        obj := Linexpr.add !obj (bnl_cost_expr enc pm aux j)
      done;
      (Bnl aux, !obj)
    | Fixed_operator op ->
      let obj = ref Linexpr.zero in
      for j = 0 to enc.Encoding.num_joins - 1 do
        obj := Linexpr.add !obj (operator_cost_expr enc pm None op j)
      done;
      (No_aux, !obj)
    | Choose_operator ops_list ->
      if ops_list = [] then invalid_arg "Cost_enc.install: empty operator list";
      let ops = Array.of_list (List.sort_uniq compare ops_list) in
      let needs_bnl = Array.exists (fun op -> op = Plan.Block_nested_loop) ops in
      let bnl = if needs_bnl then Some (build_bnl_aux enc pm) else None in
      let nops = Array.length ops in
      let jos =
        Array.init enc.Encoding.num_joins (fun j ->
            Array.init nops (fun i ->
                Problem.add_var p
                  ~name:(Printf.sprintf "jos_j%d_%s" j (Plan.operator_to_string ops.(i)))
                  ~kind:Problem.Binary ()))
      in
      let bounds = Array.map (fun op -> Bigm.product_bound (operator_cost_bound enc pm op)) ops in
      let pjc =
        Array.init enc.Encoding.num_joins (fun j ->
            Array.init nops (fun i ->
                let v =
                  Problem.add_var p
                    ~name:(Printf.sprintf "pjc_j%d_%s" j (Plan.operator_to_string ops.(i)))
                    ~lb:0. ~ub:bounds.(i) ()
                in
                Problem.add_constr p
                  ~name:(Printf.sprintf "pjc_def_j%d_%d" j i)
                  (Linexpr.sub (Linexpr.var v) (operator_cost_expr enc pm bnl ops.(i) j))
                  Problem.Eq 0.;
                v))
      in
      let ajc =
        Array.init enc.Encoding.num_joins (fun j ->
            Array.init nops (fun i ->
                Linearize.product_binary_continuous p
                  ~name:(Printf.sprintf "ajc_j%d_%s" j (Plan.operator_to_string ops.(i)))
                  ~binary:jos.(j).(i) ~continuous:pjc.(j).(i) ~lb:0. ~ub:bounds.(i) ()))
      in
      (* Exactly one operator per join. *)
      for j = 0 to enc.Encoding.num_joins - 1 do
        Problem.add_constr p
          ~name:(Printf.sprintf "one_op_j%d" j)
          (Linexpr.of_terms (Array.to_list (Array.map (fun v -> (v, 1.)) jos.(j))))
          Problem.Eq 1.
      done;
      let obj = ref Linexpr.zero in
      Array.iter
        (fun row -> Array.iter (fun v -> obj := Linexpr.add_term !obj v 1.) row)
        ajc;
      (Choose { ops; jos; pjc; ajc; bnl }, !obj)
  in
  Problem.set_objective p Problem.Minimize objective;
  Problem.set_meta p "joinopt.cost" (spec_to_string spec);
  { enc; spec; pm; aux }

(* ------------------------------------------------------------------ *)
(* Honest assignments and objective evaluation                          *)
(* ------------------------------------------------------------------ *)

(* Approximate outer quantity at join j under a given order: exact for
   j = 0, staircase for j >= 1 (what the cto variables force). *)
let outer_value c order g j =
  if j = 0 then g c.enc.Encoding.effective_card.(order.(0))
  else Thresholds.approx_fn c.enc.Encoding.ladder g (Encoding.log10_outer_card c.enc order j)

let fill_bnl c aux order x =
  for j = 0 to c.enc.Encoding.num_joins - 1 do
    let b = outer_value c order (g_blocks c.pm) j in
    x.(aux.blocks.(j)) <- b;
    Array.iteri (fun t y -> x.(y) <- (if t = order.(j + 1) then b else 0.)) aux.y.(j)
  done

let extend_assignment c order x =
  match c.aux with
  | No_aux -> ()
  | Bnl aux -> fill_bnl c aux order x
  | Choose { ops; jos; pjc; ajc; bnl } ->
    (match bnl with Some aux -> fill_bnl c aux order x | None -> ());
    for j = 0 to c.enc.Encoding.num_joins - 1 do
      (* Each operator's cost as its definition row sums it, so the row
         holds to the last bit: a closed form summing the same staircase
         in another order misses it by several units at 1e16. *)
      let costs =
        Array.map
          (fun op -> Linexpr.eval (fun v -> x.(v)) (operator_cost_expr c.enc c.pm bnl op j))
          ops
      in
      let best = ref 0 in
      Array.iteri (fun i v -> if v < costs.(!best) then best := i) costs;
      Array.iteri
        (fun i _ ->
          x.(jos.(j).(i)) <- (if i = !best then 1. else 0.);
          x.(pjc.(j).(i)) <- costs.(i);
          x.(ajc.(j).(i)) <- (if i = !best then costs.(i) else 0.))
        ops
    done

let objective_of_order c order =
  let x = Encoding.assignment_of_order c.enc order in
  extend_assignment c order x;
  Problem.eval_objective c.enc.Encoding.problem (fun v -> x.(v))

let decode_operators c value order =
  let n = Array.length order in
  match c.aux with
  | No_aux | Bnl _ -> (
    match c.spec with
    | Cout -> Cost_model.optimal_operators ~pm:c.pm c.enc.Encoding.query order
    | Fixed_operator op -> Plan.of_order ~operators:(Array.make (n - 1) op) order
    | Choose_operator _ -> assert false)
  | Choose { ops; jos; _ } ->
    let operators =
      Array.init (n - 1) (fun j ->
          let best = ref 0 in
          Array.iteri (fun i v -> if value v > value jos.(j).(!best) then best := i) jos.(j);
          ops.(!best))
    in
    Plan.of_order ~operators order
