(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, made from the
   benchmark's own code: its name, start, end, the span that caused it
   and the request it belongs to. Spans nest by dynamic extent on the
   recording domain. A side call (a layer function timed on its own,
   outside the pipeline being replayed) is recorded with [side = true]
   and no parent, so it is never counted as a child. Spans are written
   out once, when the run ends. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  req : int;
  side : bool;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let enabled = ref false

let span ?(side = false) ~req name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = if side then -1 else match !stack with p :: _ -> p | [] -> -1 in
    let saved = !stack in
    stack := id :: (if side then [] else saved);
    let start = Util.now () in
    let finish () =
      let stop = Util.now () in
      stack := saved;
      spans := { id; name; start; stop; parent; req; side } :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let side ~req name f = span ~side:true ~req name f

(* A root span measured elsewhere (e.g. a client thread's round trip);
   safe to call from any systhread of the recording domain. *)
let record_lock = Mutex.create ()

let record ~req name start stop =
  if !enabled then begin
    Mutex.lock record_lock;
    let id = !next_id in
    incr next_id;
    spans := { id; name; start; stop; parent = -1; req; side = false } :: !spans;
    Mutex.unlock record_lock
  end

(* Self time: a span's duration minus the part of it its children
   cover. Children of one span run one after another on the recording
   domain, so their durations add without overlap. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s -> (s, s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    !spans

(* Per-name totals of self time (seconds) and span counts. *)
type summary = (string, float * int) Hashtbl.t

let summarize () : summary =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (t +. self, n + 1))
    (self_times ());
  tbl

let total (sm : summary) name = fst (Option.value ~default:(0., 0) (Hashtbl.find_opt sm name))
let count (sm : summary) name = snd (Option.value ~default:(0., 0) (Hashtbl.find_opt sm name))

(* Mean self time of the spans called [name]; [nan] when there is none. *)
let mean (sm : summary) name =
  let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt sm name) in
  if n = 0 then nan else t /. float_of_int n

(* One JSON object per line, chronological. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"self\":%.9f,\"parent\":%d,\"req\":%d,\"side\":%b}\n"
        s.id s.name s.start s.stop self s.parent s.req s.side)
    (List.sort (fun (a, _) (b, _) -> compare a.id b.id) (self_times ()));
  close_out oc
