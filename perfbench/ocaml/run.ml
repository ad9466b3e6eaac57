(* What every workload shares: options, the timed loop, the result of
   a run, and the per-layer metrics of a traced run. *)

module O = Joinopt.Optimizer
module Json = Service.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  short : bool;  (** tiny inputs, one set-up: the benchmark's own test *)
  run_dir : string;  (** scratch files (socket, snapshot, spans) *)
}

type result = {
  tally : Checks.tally;
  metrics : Util.metrics;
  report : (string * Json.t) list;  (** digest, sample counts, workload facts *)
}

(* Run [step i] for i = 0, 1, ... until [seconds] have passed (at least
   once); returns the count, the elapsed wall time and each step's
   (start, end) since the loop began. *)
let timed_loop ~seconds step =
  let t0 = Util.now () in
  let deadline = t0 +. seconds in
  let spans = ref [] in
  let i = ref 0 in
  while !i = 0 || Util.now () < deadline do
    let s = Util.now () -. t0 in
    step !i;
    spans := (s, Util.now () -. t0) :: !spans;
    incr i
  done;
  (!i, Util.now () -. t0, Array.of_list !spans)

(* Throughput as the median over five equal slices of the timed phase,
   so a slowdown of the machine during one slice does not move it. An
   operation counts in each slice in proportion to the part of it that
   falls there. *)
let slices = 5

let throughput ~elapsed ops =
  let width = elapsed /. float_of_int slices in
  let work = Array.make slices 0. in
  Array.iter
    (fun (s, e) ->
      let d = Float.max (e -. s) 1e-12 in
      for b = 0 to slices - 1 do
        let lo = Float.max s (float_of_int b *. width) and hi = Float.min e (float_of_int (b + 1) *. width) in
        if hi > lo then work.(b) <- work.(b) +. ((hi -. lo) /. d)
      done)
    ops;
  Util.median (Array.map (fun w -> w /. width) work)

(* Set-up repetitions behind [setup_s]; the serving set-up, which
   starts a server and fills its cache, is the expensive one. *)
let setups ?(cheap = true) opts = if opts.short then 1 else if cheap then 5 else 3

(* The end-to-end metrics every workload reports (trace off). *)
let end_to_end ~setup_s ~elapsed ~ops ~latencies (t : Checks.tally) m =
  let ms = Array.map (fun s -> 1000. *. s) latencies in
  Util.set m "setup_s" "s" setup_s;
  Util.set m "throughput_qps" "1/s" (throughput ~elapsed ops);
  Util.set m "latency_p50_ms" "ms" (Util.percentile 50. ms);
  Util.set m "latency_p90_ms" "ms" (Util.percentile 90. ms);
  Util.set m "cost_ratio_geomean" "ratio" (Util.geomean (Util.values t.Checks.ratios));
  Util.set m "success_frac" "frac" (Checks.success_frac t);
  Util.set m "peak_rss_mb" "MB" (Util.peak_rss_mb ())

(* Sample counts behind each percentile, for the report line. *)
let samples n =
  Json.Obj
    [
      ("latency_p50_ms", Json.Int n);
      ("latency_p90_ms", Json.Int n);
      ("beyond_p90", Json.Int (n - int_of_float (Float.ceil (0.9 *. float_of_int n))));
    ]

(* Decomposition facts collected from every [Layers.decompose] call of
   a traced run. *)
let decomp_metrics ~jobs (rs : Decomp.Decompose.result list) m =
  let solved =
    List.concat_map
      (fun r ->
        List.filter
          (fun c -> c.Decomp.Decompose.cr_provenance <> "trivial")
          (Array.to_list r.Decomp.Decompose.d_clusters))
      rs
  in
  let elapsed = Array.of_list (List.map (fun c -> 1000. *. c.Decomp.Decompose.cr_elapsed) solved) in
  let stragglers =
    Array.of_list
      (List.filter_map
         (fun r ->
           let e =
             Array.of_list
               (List.filter_map
                  (fun c ->
                    if c.Decomp.Decompose.cr_provenance = "trivial" then None
                    else Some c.Decomp.Decompose.cr_elapsed)
                  (Array.to_list r.Decomp.Decompose.d_clusters))
           in
           if Array.length e = 0 then None
           else Some (Array.fold_left Float.max 0. e /. Util.mean e))
         rs)
  in
  let busy = Util.sum (Array.map (fun x -> x /. 1000.) elapsed) in
  let wall = List.fold_left (fun acc r -> acc +. r.Decomp.Decompose.d_elapsed) 0. rs in
  let certified = List.length (List.filter (fun c -> c.Decomp.Decompose.cr_certified) solved) in
  Util.set m "decomp.cluster_solve_ms_p50" "ms" (Util.median elapsed);
  Util.set m "decomp.cluster_solve_ms_max" "ms" (Array.fold_left Float.max 0. elapsed);
  Util.set m "decomp.straggler_ratio" "ratio" (Util.mean stragglers);
  Util.set m "decomp.pool_busy_frac" "frac" (busy /. (wall *. float_of_int jobs));
  Util.set m "decomp.clusters_certified_frac" "frac"
    (float_of_int certified /. float_of_int (max 1 (List.length solved)));
  Util.set m "decomp.seam_fallbacks" "count"
    (float_of_int (List.length (List.filter (fun r -> r.Decomp.Decompose.d_seam_fallback) rs)))
