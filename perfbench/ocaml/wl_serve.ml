(* serve_mix: a closed loop of two client connections into the
   Unix-socket server at two worker domains. Each client sends its next
   request only after the reply to the previous one, as a database
   client blocks on its plan.

   The stream has a head and a tail. The head is a fixed pool of four-
   and five-table queries with Zipf popularity; every request
   re-declares its query under a table and predicate permutation, so
   the server's fingerprinting does real work for a hit, and a small
   share asks for low instead of medium precision (stale-precision hits,
   cache warm starts). The tail is 1% of requests, each a four-table
   query seen once: a small miss at a fixed rate, whose insert evicts
   older entries from a cache smaller than the set of distinct queries.
   The server snapshots its cache periodically. About 1.2% of requests
   miss, so the median and the 90th percentile both fall well inside
   the hit mode, and the miss rate does not hang on which cache shards
   the popular queries hash to. *)

module O = Joinopt.Optimizer
module Q = Relalg.Query
module JG = Relalg.Join_graph
module Json = Service.Json

(* The head: five-table queries at the eight most popular ranks and
   four-table queries below them. *)
let shapes = [| JG.Chain; JG.Star; JG.Cycle; JG.Clique |]
let five_table_ranks = 8
let pool_size = 48
let variants = 4
let zipf_s = 1.4
let second_share = 0.01
let second_precision = "low"
let tail_share = 0.01
let tail_per_client = 2000
let cache_capacity = 128
let clients = 2

type variant = { vq : Q.t; prefix : string array  (** by precision: medium, second *) }

type env = {
  pool : Q.t array;
  refs : float array;
  vars : variant array array;
  tails : (variant * float) array array;  (** per client: one-off queries and their references *)
  next_tail : int array;  (** per client: the next unused tail query *)
  cdf : float array;
  server : Serve.server;
  conns : Serve.conn array;
}

let variant rng q =
  let vq = Q.permute_tables q ~perm:(Util.shuffle rng (Q.num_tables q)) in
  let vq = Q.permute_predicates vq ~perm:(Util.shuffle rng (Q.num_predicates vq)) in
  let text = Json.to_string ~indent:false (Json.String (Relalg.Query_file.to_string vq)) in
  let prefix precision = Printf.sprintf {|{"op":"optimize","query":%s,"precision":"%s","id":|} text precision in
  { vq; prefix = [| prefix "medium"; prefix second_precision |] }

let zipf_cdf n =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Util.sum w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let setup (opts : Run.opts) () =
  let config = Layers.config O.Ws_greedy in
  let size = if opts.Run.short then 6 else pool_size in
  let pool =
    Array.init size (fun i ->
        let shape = shapes.(i mod Array.length shapes) in
        let num_tables = if i < five_table_ranks then 5 else 4 in
        Relalg.Workload.generate ~seed:(Util.derive opts.Run.seed "serve" i) ~shape ~num_tables ())
  in
  let refs = Array.map (Layers.reference_cost config) pool in
  let rng = Random.State.make [| Util.derive opts.Run.seed "variants" 0 |] in
  let vars = Array.map (fun q -> Array.init variants (fun _ -> variant rng q)) pool in
  let tail_len = if opts.Run.short then 4 else tail_per_client in
  let tails =
    Array.init clients (fun cid ->
        Array.init tail_len (fun i ->
            let q =
              Relalg.Workload.generate
                ~seed:(Util.derive opts.Run.seed "tail" ((cid * tail_len) + i))
                ~shape:shapes.(i mod Array.length shapes) ~num_tables:4 ()
            in
            (variant rng q, Layers.reference_cost config q)))
  in
  let server_config =
    {
      (Sweep.server_config ~run_dir:opts.Run.run_dir ~decomp:O.default_decomp) with
      Service.Server.sv_cache_capacity = (if opts.Run.short then 4 else cache_capacity);
    }
  in
  let path = Filename.concat opts.Run.run_dir "serve.sock" in
  let server = Serve.start ~config:server_config ~path in
  let conns = Array.init clients (fun _ -> Option.get (Serve.connect path)) in
  (* Warm-up on fixed queries, the same for every seed, so that
     [setup_s] does not swing with the pool's solve times. *)
  Array.iteri
    (fun i q -> ignore (Serve.call conns.(0) (Serve.request_line ~id:(-1 - i) q)))
    (Array.init (if opts.Run.short then 1 else 8) (fun i ->
         Relalg.Workload.generate ~seed:i ~shape:shapes.(i mod Array.length shapes) ~num_tables:4 ()));
  { pool; refs; vars; tails; next_tail = Array.make clients 0; cdf = zipf_cdf size; server; conns }

let teardown env =
  Array.iter Serve.close env.conns;
  Serve.stop env.server

(* Per-client results of one closed-loop phase. *)
type client_out = {
  lat : Util.sample;
  mutable ops : (float * float) list;  (** (send, reply) since the phase started *)
  tally : Checks.tally;
  digest : Util.digest;
  mutable sent : int;
}

let digest_len = 200

(* Check one response to a request for [v]; verdicts are cached per
   (request kind, answer). *)
let check verdicts out ~kind ~(v : variant) ~reference ~id resp =
  let t = out.tally in
  Checks.attempt t;
  match Json.parse resp with
  | Error e -> Checks.wrong t ("unparsable response: " ^ e)
  | Ok doc -> (
    let str k = Option.bind (Json.member k doc) Json.to_string_opt in
    let num k = Option.bind (Json.member k doc) Json.to_float_opt in
    match (Json.member "id" doc, str "status") with
    | Some (Json.Int got), _ when got <> id ->
      Checks.wrong t (Printf.sprintf "response for request %d arrived in place of %d" got id)
    | _, Some "ok" -> (
      let plan = Option.value ~default:"" (str "plan") in
      let true_cost = Option.value ~default:nan (num "true_cost") in
      let key = (kind, plan, true_cost) in
      let verdict =
        match Hashtbl.find_opt verdicts key with
        | Some v -> v
        | None ->
          let verdict =
            match Checks.plan_of_string v.vq plan with
            | None -> Error ("unreadable plan " ^ plan)
            | Some p ->
              Checks.plan ~exact:true
                ~cost:(fun q p -> Relalg.Cost_model.plan_cost ~metric:Relalg.Cost_model.Operator_costs q p)
                ~reference v.vq p true_cost
          in
          Hashtbl.replace verdicts key verdict;
          (* One cost ratio per distinct answer: weighting by request
             count would let the few most popular queries decide it. *)
          Result.iter (Util.push t.Checks.ratios) verdict;
          verdict
      in
      (match verdict with
      | Error msg -> Checks.wrong t msg
      | Ok _ ->
        (* A response carries no certificate, so a recovered solve
           cannot be told certified here and counts as failed. *)
        if
          Json.member "degraded" doc <> Some (Json.Bool false)
          || str "provenance" <> Some "milp-certified"
        then Checks.fail t "degraded or uncertified answer");
      if out.digest.Util.items < digest_len then
        Util.digest_add out.digest [ kind; Util.opt_g17 (num "objective") ])
    | _, status -> Checks.fail t ("status " ^ Option.value ~default:"missing" status))

let client env ~seed ~start ~deadline ~trace cid =
  let out = { lat = Util.sample (); ops = []; tally = Checks.tally (); digest = Util.digest (); sent = 0 } in
  let rng = Random.State.make [| seed; cid |] in
  let verdicts = Hashtbl.create 256 in
  let conn = env.conns.(cid) in
  let tail = env.tails.(cid) in
  while Util.now () < deadline do
    let kind, v, reference =
      if Random.State.float rng 1. < tail_share then begin
        let i = env.next_tail.(cid) mod Array.length tail in
        env.next_tail.(cid) <- env.next_tail.(cid) + 1;
        let v, reference = tail.(i) in
        (Printf.sprintf "t%d" i, v, reference)
      end
      else begin
        let qi = draw env.cdf (Random.State.float rng 1.) in
        let vi = Random.State.int rng variants in
        (Printf.sprintf "q%d.%d" qi vi, env.vars.(qi).(vi), env.refs.(qi))
      end
    in
    let prec = if Random.State.float rng 1. < second_share then 1 else 0 in
    let kind = if prec = 1 then kind ^ "/" ^ second_precision else kind in
    let id = (cid * 1_000_000_000) + out.sent in
    let line = v.prefix.(prec) ^ string_of_int id ^ "}" in
    let t0 = Util.now () in
    let resp = Serve.call conn line in
    let t1 = Util.now () in
    if trace then Tracer.record ~req:id "service.request" t0 t1;
    Util.push out.lat (t1 -. t0);
    out.ops <- (t0 -. start, t1 -. start) :: out.ops;
    out.sent <- out.sent + 1;
    check verdicts out ~kind ~v ~reference ~id resp
  done;
  out

(* One closed-loop phase with both clients; returns their outputs, the
   wall time and the server's counters over the phase. *)
let phase env ~seed ~seconds ~trace =
  let before = Serve.snapshot (Serve.stats env.conns.(0)) in
  let t0 = Util.now () in
  let deadline = t0 +. seconds in
  let outs = Array.make clients None in
  let threads =
    Array.init clients (fun cid ->
        Thread.create (fun () -> outs.(cid) <- Some (client env ~seed ~start:t0 ~deadline ~trace cid)) ())
  in
  Array.iter Thread.join threads;
  let elapsed = Util.now () -. t0 in
  let after = Serve.snapshot (Serve.stats env.conns.(0)) in
  (Array.map Option.get outs, elapsed, Serve.diff before after)

let merge outs =
  let t = Checks.tally () in
  Array.iter
    (fun o ->
      t.Checks.attempted <- t.Checks.attempted + o.tally.Checks.attempted;
      t.Checks.failed <- t.Checks.failed + o.tally.Checks.failed;
      t.Checks.wrong <- t.Checks.wrong + o.tally.Checks.wrong;
      t.Checks.recovered <- t.Checks.recovered + o.tally.Checks.recovered;
      if t.Checks.first_wrong = None then t.Checks.first_wrong <- o.tally.Checks.first_wrong;
      if t.Checks.first_failure = None then t.Checks.first_failure <- o.tally.Checks.first_failure;
      Array.iter (Util.push t.Checks.ratios) (Util.values o.tally.Checks.ratios))
    outs;
  t

let concat f outs = Array.concat (Array.to_list (Array.map (fun o -> Util.values (f o)) outs))
let latencies = concat (fun o -> o.lat)

let run (opts : Run.opts) =
  let env, setup_s = Util.repeated_setup ~discard:teardown (Run.setups ~cheap:false opts) (setup opts) in
  (* Fill the cache, once and outside [setup_s]: every head query at
     medium precision. *)
  Array.iteri (fun i v -> ignore (Serve.call env.conns.(0) (v.(0).prefix.(0) ^ string_of_int (-100 - i) ^ "}"))) env.vars;
  let seed = opts.Run.seed in
  let m = Util.metrics () in
  let result =
    if not opts.Run.trace then begin
      let outs, elapsed, w = phase env ~seed ~seconds:opts.Run.seconds ~trace:false in
      let lat = latencies outs in
      let tally = merge outs in
      Run.end_to_end ~setup_s ~elapsed ~ops:(Array.of_list (List.concat_map (fun o -> o.ops) (Array.to_list outs))) ~latencies:lat tally m;
      let lookups = w.Serve.hits +. w.Serve.misses in
      {
        Run.tally;
        metrics = m;
        report =
          [
            ("work_digest", Json.String (Util.digest_hex outs.(0).digest));
            ("digest_items", Json.Int outs.(0).digest.Util.items);
            ("samples", Run.samples (Array.length lat));
            ("cache_hit_rate", Json.Float (w.Serve.hits /. lookups));
            ("solves", Json.Float w.Serve.solve_count);
          ];
      }
    end
    else begin
      let half = 0.35 *. opts.Run.seconds in
      let g = Util.gc_mark () in
      let plain, _, _ = phase env ~seed ~seconds:half ~trace:false in
      let words, majors = Util.gc_since g in
      let plain_lat = latencies plain in
      Tracer.enabled := true;
      let outs, _, w = phase env ~seed:(seed + 1) ~seconds:half ~trace:true in
      let lat = latencies outs in
      Sweep.serve_facts := Some { Sweep.window = w; round_trips = lat };
      let cache = Service.Plan_cache.create ~capacity:cache_capacity () in
      Array.iteri (fun i v -> Layers.service_calls ~req:(-1 - i) ~cache v.(0).vq) env.vars;
      Sweep.run ~opts ~replay_policies:[ O.Ws_greedy; O.Ws_portfolio ] ~decompose_small:true ~serve:false
        ~mono:(Array.to_list env.pool) ~wide:[];
      Tracer.enabled := false;
      Sweep.emit
        ~gc_words_per_query:(words /. 1e6 /. float_of_int (Array.length plain_lat))
        ~gc_major:majors
        ~overhead:((Util.mean lat /. Util.mean plain_lat) -. 1.)
        m;
      {
        Run.tally = merge (Array.append plain outs);
        metrics = m;
        report = [ ("work_digest", Json.String (Util.digest_hex plain.(0).digest)) ];
      }
    end
  in
  teardown env;
  result
