(* Severity-ranked findings with stable codes.

   Codes are part of the repo's interface — tests pin exact code sets
   and allowlist entries name them — so a code is never renumbered, only
   retired. Families:

     S0xx  analyzer/allowlist hygiene
     S1xx  concurrency discipline (locks, condition waits, domains)
     S2xx  budget discipline (polls in solver loops, sub-budget scope)
     S3xx  metadata-channel coupling (joinopt.* producers vs consumers)
     S4xx  protocol coupling (parsed vs documented vs emitted fields)
     S5xx  source invariants (wall clock, self-seeded RNG, Obj.magic,
           polymorphic float equality in cost paths, blocking service
           code) *)

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type t = {
  f_code : string;
  f_sev : severity;
  f_path : string;
  f_line : int;
  f_msg : string;
  f_note : string;  (* allowlist reason when downgraded; "" otherwise *)
}

let make ~code ~sev ~path ~line ~msg =
  { f_code = code; f_sev = sev; f_path = path; f_line = line; f_msg = msg; f_note = "" }

let compare a b =
  let c = compare (severity_rank a.f_sev) (severity_rank b.f_sev) in
  if c <> 0 then c
  else
    let c = compare a.f_path b.f_path in
    if c <> 0 then c
    else
      let c = compare a.f_line b.f_line in
      if c <> 0 then c else compare (a.f_code, a.f_msg) (b.f_code, b.f_msg)

let render_text f =
  Printf.sprintf "%s:%d: %s %s: %s%s" f.f_path f.f_line f.f_code
    (severity_to_string f.f_sev)
    f.f_msg
    (if f.f_note = "" then "" else Printf.sprintf " [allowlisted: %s]" f.f_note)

(* Minimal JSON emission; the srclint library stays stdlib-only so the
   pre-commit path never waits on the service library to build. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let count sev findings = List.length (List.filter (fun f -> f.f_sev = sev) findings)

let render_json ~files findings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"files\":%d,\"errors\":%d,\"warnings\":%d,\"info\":%d,\"findings\":["
       files (count Error findings) (count Warning findings) (count Info findings));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"code\":\"%s\",\"severity\":\"%s\",\"path\":\"%s\",\"line\":%d,\"message\":\"%s\"%s}"
           (json_escape f.f_code)
           (severity_to_string f.f_sev)
           (json_escape f.f_path) f.f_line (json_escape f.f_msg)
           (if f.f_note = "" then ""
            else Printf.sprintf ",\"allowlisted\":\"%s\"" (json_escape f.f_note))))
    findings;
  Buffer.add_string buf "]}";
  Buffer.contents buf
