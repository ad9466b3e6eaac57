(* The Unix-socket server under test, run in process on its own domain,
   and a blocking line client for it. *)

module Json = Service.Json
module Server = Service.Server

type server = { srv : Server.t; dom : unit Domain.t; path : string }

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  write_all c.fd b 0 (Bytes.length b)

let rec recv c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
    String.sub s 0 i
  | None ->
    let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
    if n = 0 then failwith "server closed the connection";
    Buffer.add_subbytes c.pending c.chunk 0 n;
    recv c

(* An optimize request for [q] as one protocol line. *)
let request_line ?precision ~id q =
  Json.to_string ~indent:false
    (Json.Obj
       ([ ("op", Json.String "optimize"); ("id", Json.Int id); ("query", Json.String (Relalg.Query_file.to_string q)) ]
       @ match precision with Some p -> [ ("precision", Json.String p) ] | None -> []))

let call c line =
  send c line;
  recv c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Start the server and wait until it accepts connections. *)
let start ~config ~path =
  (try Sys.remove path with Sys_error _ -> ());
  (match config.Server.sv_snapshot_path with
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
  | None -> ());
  let srv = Server.create ~config () in
  let dom = Domain.spawn (fun () -> Server.serve_socket srv ~path) in
  let rec wait k =
    if k = 0 then failwith "server did not start listening"
    else
      match connect path with
      | Some c ->
        close c;
        { srv; dom; path }
      | None ->
        Unix.sleepf 0.005;
        wait (k - 1)
  in
  wait 2000

let stop s =
  (match connect s.path with
  | Some c ->
    ignore (call c {|{"op":"shutdown","id":"stop"}|});
    close c
  | None -> ());
  Domain.join s.dom

let stats c =
  match Json.parse (call c {|{"op":"stats","id":"stats"}|}) with
  | Ok doc -> (
    match Json.member "stats" doc with Some st -> st | None -> failwith "stats: no stats field")
  | Error e -> failwith ("stats: " ^ e)

let rec path_float doc = function
  | [] -> Option.value ~default:nan (Json.to_float_opt doc)
  | k :: rest -> (
    match Json.member k doc with Some d -> path_float d rest | None -> nan)

(* Server-side counters and phase totals, read from [stats]. *)
type snapshot = {
  hits : float;
  misses : float;
  stale : float;
  evictions : float;
  req_total : float;
  req_count : float;
  solve_total : float;
  solve_count : float;
  queue_hwm : float;
}

let snapshot st =
  let f = path_float st in
  {
    hits = f [ "cache"; "hits" ];
    misses = f [ "cache"; "misses" ];
    stale = f [ "cache"; "stale_precision_hits" ];
    evictions = f [ "cache"; "evictions" ];
    req_total = f [ "latency"; "request"; "total" ];
    req_count = f [ "latency"; "request"; "count" ];
    solve_total = f [ "latency"; "solve"; "total" ];
    solve_count = f [ "latency"; "solve"; "count" ];
    queue_hwm = f [ "supervision"; "queue_high_water" ];
  }

let per_count total count = if count > 0. then total /. count else nan

(* The server's share of a request, between two snapshots. *)
let diff a b =
  {
    hits = b.hits -. a.hits;
    misses = b.misses -. a.misses;
    stale = b.stale -. a.stale;
    evictions = b.evictions -. a.evictions;
    req_total = b.req_total -. a.req_total;
    req_count = b.req_count -. a.req_count;
    solve_total = b.solve_total -. a.solve_total;
    solve_count = b.solve_count -. a.solve_count;
    queue_hwm = b.queue_hwm;
  }
