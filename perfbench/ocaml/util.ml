(* Shared helpers: clocks, order statistics, work digests, process
   resource readings and the metric table every workload fills. *)

(* Seconds on the monotonic clock at nanosecond resolution: the
   microsecond wall clock would quantize the sub-microsecond side calls
   and the 0.1 ms cache hits to a few repeating values. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (the same rule as
   Python's statistics.quantiles with method="inclusive"). *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let pos = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let w = pos -. float_of_int lo in
    (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)
  end

let median xs = percentile 50. xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

let sum xs = Array.fold_left ( +. ) 0. xs

let geomean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int n)

(* A growable float sample. *)
type sample = { mutable data : float array; mutable len : int }

let sample () = { data = Array.make 64 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len

(* Work digest: a rolling MD5 over the deterministic outputs of a run
   (objectives at full precision, node and iteration counts), so two
   runs that did identical work print identical digests. *)
type digest = { buf : Buffer.t; mutable items : int }

let digest () = { buf = Buffer.create 4096; items = 0 }

let digest_add d fields =
  Buffer.add_string d.buf (String.concat ":" fields);
  Buffer.add_char d.buf ';';
  d.items <- d.items + 1

let digest_hex d = String.sub (Digest.to_hex (Digest.string (Buffer.contents d.buf))) 0 16

let g17 f = Printf.sprintf "%.17g" f

let opt_g17 = function Some f -> g17 f | None -> "none"

(* Peak resident set size of this process, from /proc (Linux). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_since m =
  let n = gc_mark () in
  (n.minor_words -. m.minor_words, n.major_collections - m.major_collections)

(* Metrics in output order, each with its unit. *)
type metrics = (string * float * string) list ref

let metrics () : metrics = ref []
let set (m : metrics) name unit v = m := (name, v, unit) :: !m
let metric_list (m : metrics) = List.rev !m

(* Set-up repeated [n] times; returns the last result and the median
   duration, so one slow repetition does not move [setup_s]. Earlier
   results are handed to [discard] (untimed). *)
let repeated_setup ?(discard = ignore) n f =
  let times = Array.make n 0. in
  let last = ref None in
  for i = 0 to n - 1 do
    Option.iter discard !last;
    let r, dt = time f in
    times.(i) <- dt;
    last := Some r
  done;
  (Option.get !last, median times)

(* Deterministic per-purpose seed derivation from the run seed. *)
let derive seed tag k = abs (Hashtbl.hash (seed, tag, k)) land 0x3FFFFFFF

(* A uniformly random permutation of [0 .. n-1] (Fisher-Yates). *)
let shuffle rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
