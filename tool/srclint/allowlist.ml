(* Per-rule allowlist. Every entry MUST cite a reason — an entry with a
   missing or token reason is itself reported as an S000 error, and an
   entry that matches nothing is reported S001 so stale suppressions
   cannot accumulate. Matching is by code, path suffix, and an optional
   substring of the message, so an entry stays put when line numbers
   shift but dies when the code it excuses moves away. *)

type entry = {
  a_code : string;
  a_path : string;  (* suffix of the repo-relative path *)
  a_hint : string;  (* substring the finding's message must contain; "" = any *)
  a_reason : string;  (* mandatory prose; >= 20 chars enforced *)
}

let entries =
  [
    {
      a_code = "S201";
      a_path = "lib/dp_opt/annealing.ml";
      a_hint = "loop";
      a_reason =
        "distinct_pair's rejection-sampling loop re-rolls only while the two indices \
         collide; with n >= 2 it terminates in two expected iterations, so a budget \
         poll would cost more than the loop body";
    };
  ]

let suffix_match path suffix =
  let lp = String.length path and ls = String.length suffix in
  ls <= lp && String.sub path (lp - ls) ls = suffix

let matches e (f : Findings.t) =
  e.a_code = f.Findings.f_code
  && suffix_match f.Findings.f_path e.a_path
  && (e.a_hint = "" || Lexer.contains f.Findings.f_msg e.a_hint)

let find f = List.find_opt (fun e -> matches e f) entries

(* Entries whose reason is missing or too short to be prose. *)
let invalid_entries () =
  List.filter (fun e -> String.length (String.trim e.a_reason) < 20) entries
