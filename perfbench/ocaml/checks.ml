(* Output checks and the run's tally of attempted, failed and wrong
   operations. A wrong output (an invalid plan, a cost below the exact
   reference, a protocol violation) also counts as failed and makes the
   run incorrect. A solve the solver's numeric recovery ladder finished
   with a certified optimum succeeds, and is counted in [recovered]. *)

module Plan = Relalg.Plan

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable recovered : int;  (** successes that needed a recovery rung *)
  mutable first_wrong : string option;
  mutable first_failure : string option;
  ratios : Util.sample;  (** plan true cost over the reference, per checked output *)
}

let tally () =
  { attempted = 0; failed = 0; wrong = 0; recovered = 0; first_wrong = None; first_failure = None; ratios = Util.sample () }

let attempt t = t.attempted <- t.attempted + 1
let recovered t = t.recovered <- t.recovered + 1

let fail t msg =
  t.failed <- t.failed + 1;
  if t.first_failure = None then t.first_failure <- Some msg

let wrong t msg =
  t.failed <- t.failed + 1;
  t.wrong <- t.wrong + 1;
  if t.first_wrong = None then t.first_wrong <- Some msg

let success_frac t = if t.attempted = 0 then nan else 1. -. (float_of_int t.failed /. float_of_int t.attempted)

(* A plan is right when it joins exactly the query's tables, its
   reported true cost is the exact model's cost, and — against an
   exact reference — that cost is not below the optimum. Returns the
   cost ratio. [exact] is false for heuristic references, which a
   correct plan may beat. *)
let plan ~exact ~cost ~reference q (p : Plan.t) reported =
  match Plan.validate q p with
  | Error msg -> Error ("invalid plan: " ^ msg)
  | Ok () ->
    let c = cost q p in
    if not (Util.rel_close c reported) then
      Error (Printf.sprintf "reported true cost %.17g but the plan costs %.17g" reported c)
    else if exact && c < reference *. (1. -. 1e-9) then
      Error (Printf.sprintf "plan costs %.17g, below the exact optimum %.17g" c reference)
    else Ok (if reference > 0. then c /. reference else if c > 0. then infinity else 1.)

let operator_of_string = function
  | "HJ" -> Some Plan.Hash_join
  | "SMJ" -> Some Plan.Sort_merge_join
  | "BNL" -> Some Plan.Block_nested_loop
  | _ -> None

(* Inverse of [Plan.pp_with_query]: "((A HJ B) SMJ C)" over [q]'s names. *)
let plan_of_string q s =
  let tokens =
    String.split_on_char ' ' (String.map (function '(' | ')' -> ' ' | c -> c) s)
    |> List.filter (( <> ) "")
  in
  let index = Hashtbl.create 16 in
  Array.iteri
    (fun i t -> Hashtbl.replace index t.Relalg.Catalog.tbl_name i)
    q.Relalg.Query.tables;
  let rec split names ops = function
    | [] -> Some (List.rev names, List.rev ops)
    | name :: rest -> (
      match Hashtbl.find_opt index name with
      | None -> None
      | Some i -> (
        match rest with
        | [] -> Some (List.rev (i :: names), List.rev ops)
        | op :: rest -> (
          match operator_of_string op with
          | Some o -> split (i :: names) (o :: ops) rest
          | None -> None)))
  in
  match split [] [] tokens with
  | None -> None
  | Some (names, ops) -> (
    try Some (Plan.of_order ~operators:(Array.of_list ops) (Array.of_list names))
    with Invalid_argument _ -> None)
