exception Singular of int

(* Factors of P B = L U, packed into one int and one float array.

   L is unit lower triangular and stored column-wise in *original row*
   space: entries [l_start.(k)] to [l_start.(k+1) - 1] of [l_rows] /
   [l_vals] hold the below-diagonal entries of step k as (original row,
   multiplier) pairs — the rows are the ones not yet pivoted at step k.
   U is upper triangular and stored column-wise in *step* space: entries
   [u_start.(k)] to [u_start.(k+1) - 1] of [u_steps] / [u_vals] hold the
   above-diagonal entries (step index < k), and [u_diag.(k)] the pivot.
   [pivot_row.(k)] is the original row chosen at step k; [step_of_row]
   is its inverse; [col_of_step.(k)] is the basis position eliminated at
   step k; [basis] is the factorized basis itself.

   [ints] holds, in order: l_start (n+1), u_start (n+1), pivot_row,
   step_of_row, col_of_step, basis (n each), l_rows (nl), u_steps (nu);
   [floats] holds u_diag (n), l_vals (nl), u_vals (nu). Two arrays, not
   ten, so a factor kept alive for a while (branch & bound hands them
   from parent to child) does not pin a scatter of small heap blocks. *)
type t = { n : int; nl : int; nu : int; ints : int array; floats : float array }

let[@inline] u_start_at n = n + 1
let[@inline] pivot_row_at n = (2 * n) + 2
let[@inline] step_of_row_at n = (3 * n) + 2
let[@inline] col_of_step_at n = (4 * n) + 2
let[@inline] basis_at n = (5 * n) + 2
let[@inline] l_rows_at n = (6 * n) + 2

(* Work arrays of [factorize], grown on demand and reused across calls.
   [x] is the dense scatter of the current column indexed by original
   row, [touched] its pattern; [heap] is the step worklist (a binary
   min-heap of [hn] ints); [bucket] drives the column-ordering counting
   sort; [steps] holds the per-step arrays (the first five sections of
   [ints]) and [diag] the pivots while the L and U entries accumulate in
   the [lbuf_*] / [ubuf_*] buffers; [ints] / [floats] receive the packed
   factor. *)
type scratch = {
  mutable x : float array;
  mutable in_pattern : bool array;
  mutable touched : int array;
  mutable scheduled : bool array;
  mutable heap : int array;
  mutable hn : int;
  mutable bucket : int array;
  mutable steps : int array;
  mutable diag : float array;
  mutable lbuf_rows : int array;
  mutable lbuf_vals : float array;
  mutable ubuf_steps : int array;
  mutable ubuf_vals : float array;
  mutable ints : int array;
  mutable floats : float array;
}

let scratch () =
  {
    x = [||];
    in_pattern = [||];
    touched = [||];
    scheduled = [||];
    heap = [||];
    hn = 0;
    bucket = [||];
    steps = [||];
    diag = [||];
    lbuf_rows = [||];
    lbuf_vals = [||];
    ubuf_steps = [||];
    ubuf_vals = [||];
    ints = [||];
    floats = [||];
  }

let reserve sc n =
  if Array.length sc.x < n then begin
    sc.x <- Array.make n 0.;
    sc.in_pattern <- Array.make n false;
    sc.touched <- Array.make n 0;
    sc.scheduled <- Array.make n false;
    sc.heap <- Array.make n 0;
    sc.diag <- Array.make n 0.
  end
  else begin
    Array.fill sc.x 0 n 0.;
    Array.fill sc.in_pattern 0 n false;
    Array.fill sc.scheduled 0 n false
  end;
  if Array.length sc.steps < basis_at n then sc.steps <- Array.make (basis_at n) 0;
  sc.hn <- 0

let heap_push sc s =
  let h = sc.heap in
  let pos = ref sc.hn in
  sc.hn <- sc.hn + 1;
  while !pos > 0 && h.((!pos - 1) / 2) > s do
    h.(!pos) <- h.((!pos - 1) / 2);
    pos := (!pos - 1) / 2
  done;
  h.(!pos) <- s

let heap_pop sc =
  let h = sc.heap in
  let top = h.(0) in
  sc.hn <- sc.hn - 1;
  let last = h.(sc.hn) in
  let n = sc.hn in
  let pos = ref 0 and continue = ref (n > 0) in
  while !continue do
    let c = (2 * !pos) + 1 in
    if c >= n then continue := false
    else begin
      let c = if c + 1 < n && h.(c + 1) < h.(c) then c + 1 else c in
      if h.(c) < last then begin
        h.(!pos) <- h.(c);
        pos := c
      end
      else continue := false
    end
  done;
  if n > 0 then h.(!pos) <- last;
  top

let dim (t : t) = t.n

let fill_in (t : t) = t.nl + t.nu + t.n

let factorizes (t : t) basis =
  Array.length basis = t.n
  &&
  let at = basis_at t.n in
  let rec same k = k >= t.n || (t.ints.(at + k) = basis.(k) && same (k + 1)) in
  same 0

let copy (t : t) =
  {
    t with
    ints = Array.sub t.ints 0 (l_rows_at t.n + t.nl + t.nu);
    floats = Array.sub t.floats 0 (t.n + t.nl + t.nu);
  }

let factorize ?(pivot_tol = 1e-11) ?scratch:sc ~dim:n ~col_start ~row_idx ~value basis =
  if Array.length basis <> n then invalid_arg "Sparse_lu.factorize: basis length";
  if Faults.refactor_fails () then raise (Singular (-1));
  let sc = match sc with Some sc -> sc | None -> scratch () in
  reserve sc n;
  let x = sc.x and in_pattern = sc.in_pattern and touched = sc.touched in
  let scheduled = sc.scheduled and steps = sc.steps and u_diag = sc.diag in
  let us = u_start_at n and pr = pivot_row_at n and sr = step_of_row_at n in
  let cs = col_of_step_at n in
  steps.(0) <- 0;
  steps.(us) <- 0;
  Array.fill steps sr n (-1);
  (* Static fill-reducing ordering: eliminate sparse columns first.
     Stable counting sort of basis positions by column nonzero count. *)
  let nnz_of k = col_start.(basis.(k) + 1) - col_start.(basis.(k)) in
  let max_nnz = ref 1 in
  for k = 0 to n - 1 do
    if nnz_of k > !max_nnz then max_nnz := nnz_of k
  done;
  if Array.length sc.bucket < !max_nnz + 2 then sc.bucket <- Array.make (!max_nnz + 2) 0
  else Array.fill sc.bucket 0 (!max_nnz + 2) 0;
  let bucket = sc.bucket in
  for k = 0 to n - 1 do
    bucket.(nnz_of k + 1) <- bucket.(nnz_of k + 1) + 1
  done;
  for c = 1 to !max_nnz + 1 do
    bucket.(c) <- bucket.(c) + bucket.(c - 1)
  done;
  for k = 0 to n - 1 do
    let c = nnz_of k in
    steps.(cs + bucket.(c)) <- k;
    bucket.(c) <- bucket.(c) + 1
  done;
  let nl = ref 0 and nu = ref 0 in
  for k = 0 to n - 1 do
    (* Scatter the column eliminated at step k. *)
    let col = basis.(steps.(cs + k)) in
    let ntouched = ref 0 in
    for p = col_start.(col) to col_start.(col + 1) - 1 do
      let i = row_idx.(p) in
      if not in_pattern.(i) then begin
        in_pattern.(i) <- true;
        touched.(!ntouched) <- i;
        incr ntouched
      end;
      x.(i) <- x.(i) +. value.(p)
    done;
    (* Left-looking update, driven by a worklist of the steps whose pivot
       rows appear in the current pattern (applied in ascending step
       order, which is a valid topological order for forward
       substitution). Cost is proportional to the actual update work, not
       to the elimination step count. *)
    for idx = 0 to !ntouched - 1 do
      let s = steps.(sr + touched.(idx)) in
      if s >= 0 && not scheduled.(s) then begin
        scheduled.(s) <- true;
        heap_push sc s
      end
    done;
    while sc.hn > 0 do
      let j = heap_pop sc in
      scheduled.(j) <- false;
      let xj = x.(steps.(pr + j)) in
      if xj <> 0. then
        for idx = steps.(j) to steps.(j + 1) - 1 do
          let i = sc.lbuf_rows.(idx) in
          if not in_pattern.(i) then begin
            in_pattern.(i) <- true;
            touched.(!ntouched) <- i;
            incr ntouched
          end;
          x.(i) <- x.(i) +. (-.sc.lbuf_vals.(idx) *. xj);
          (* Fill-in can activate later steps. *)
          let s = steps.(sr + i) in
          if s > j && not scheduled.(s) then begin
            scheduled.(s) <- true;
            heap_push sc s
          end
        done
    done;
    (* Pivot candidate: the largest unpivoted entry, first in pattern
       order on ties; count the U entries (pivoted rows) on the way. *)
    let nt = !ntouched in
    let best_row = ref (-1) and best_mag = ref 0. and u_count = ref 0 in
    for idx = 0 to nt - 1 do
      let i = touched.(idx) in
      let v = x.(i) in
      if v <> 0. then begin
        if steps.(sr + i) >= 0 then incr u_count
        else if abs_float v > !best_mag then begin
          best_mag := abs_float v;
          best_row := i
        end
      end
    done;
    if !best_mag <= pivot_tol then raise (Singular k);
    (* U column, in reverse pattern order. *)
    sc.ubuf_steps <- Vecbuf.reserve_ints sc.ubuf_steps ~used:!nu (!nu + !u_count);
    sc.ubuf_vals <- Vecbuf.reserve_floats sc.ubuf_vals ~used:!nu (!nu + !u_count);
    for idx = nt - 1 downto 0 do
      let i = touched.(idx) in
      let v = x.(i) in
      if v <> 0. && steps.(sr + i) >= 0 then begin
        sc.ubuf_steps.(!nu) <- steps.(sr + i);
        sc.ubuf_vals.(!nu) <- v;
        incr nu
      end
    done;
    steps.(us + k + 1) <- !nu;
    let piv_row = !best_row in
    let pivot = x.(piv_row) in
    steps.(pr + k) <- piv_row;
    steps.(sr + piv_row) <- k;
    u_diag.(k) <- pivot;
    (* L column: remaining unpivoted rows divided by the pivot, in
       reverse pattern order; the scatter is cleared on the way. *)
    sc.lbuf_rows <- Vecbuf.reserve_ints sc.lbuf_rows ~used:!nl (!nl + nt);
    sc.lbuf_vals <- Vecbuf.reserve_floats sc.lbuf_vals ~used:!nl (!nl + nt);
    for idx = nt - 1 downto 0 do
      let i = touched.(idx) in
      let v = x.(i) in
      if v <> 0. && i <> piv_row && steps.(sr + i) < 0 then begin
        sc.lbuf_rows.(!nl) <- i;
        sc.lbuf_vals.(!nl) <- v /. pivot;
        incr nl
      end;
      x.(i) <- 0.;
      in_pattern.(i) <- false
    done;
    steps.(k + 1) <- !nl
  done;
  (* Pack into the scratch's own arrays: the factor shares them until
     the next factorization with this scratch. *)
  let nl = !nl and nu = !nu in
  let lr = l_rows_at n in
  sc.ints <- Vecbuf.reserve_ints sc.ints ~used:0 (lr + nl + nu);
  sc.floats <- Vecbuf.reserve_floats sc.floats ~used:0 (n + nl + nu);
  Array.blit steps 0 sc.ints 0 (basis_at n);
  Array.blit basis 0 sc.ints (basis_at n) n;
  Array.blit sc.lbuf_rows 0 sc.ints lr nl;
  Array.blit sc.ubuf_steps 0 sc.ints (lr + nl) nu;
  Array.blit u_diag 0 sc.floats 0 n;
  Array.blit sc.lbuf_vals 0 sc.floats n nl;
  Array.blit sc.ubuf_vals 0 sc.floats (n + nl) nu;
  { n; nl; nu; ints = sc.ints; floats = sc.floats }

let check_dims (t : t) ~work r what =
  if Array.length r <> t.n || Array.length work < t.n then
    invalid_arg ("Sparse_lu." ^ what ^ ": dimension mismatch")

let solve (t : t) ~work r =
  let n = t.n and ints = t.ints and floats = t.floats in
  check_dims t ~work r "solve";
  let us = u_start_at n and pr = pivot_row_at n and cs = col_of_step_at n in
  let lr = l_rows_at n in
  let ust = lr + t.nl and lv = n and uv = n + t.nl in
  (* Forward: L z = P r, operating on the original-row-indexed copy;
     [work] holds z in step space. *)
  for k = 0 to n - 1 do
    let zk = r.(ints.(pr + k)) in
    work.(k) <- zk;
    if zk <> 0. then
      for idx = ints.(k) to ints.(k + 1) - 1 do
        let i = ints.(lr + idx) in
        r.(i) <- r.(i) -. (floats.(lv + idx) *. zk)
      done
  done;
  (* Backward: U y = z (column-oriented), y in step space. *)
  for k = n - 1 downto 0 do
    let yk = work.(k) /. floats.(k) in
    work.(k) <- yk;
    if yk <> 0. then
      for idx = ints.(us + k) to ints.(us + k + 1) - 1 do
        let s = ints.(ust + idx) in
        work.(s) <- work.(s) -. (floats.(uv + idx) *. yk)
      done
  done;
  (* Step k eliminated basis position col_of_step.(k). *)
  for k = 0 to n - 1 do
    r.(ints.(cs + k)) <- work.(k)
  done

let solve_transposed (t : t) ~work r =
  let n = t.n and ints = t.ints and floats = t.floats in
  check_dims t ~work r "solve_transposed";
  let us = u_start_at n and pr = pivot_row_at n and sr = step_of_row_at n in
  let cs = col_of_step_at n and lr = l_rows_at n in
  let ust = lr + t.nl and lv = n and uv = n + t.nl in
  (* Forward: U^T w = r, w in step space; the right-hand side arrives in
     position space, so index through the column ordering. *)
  for k = 0 to n - 1 do
    let acc = ref r.(ints.(cs + k)) in
    for idx = ints.(us + k) to ints.(us + k + 1) - 1 do
      acc := !acc -. (floats.(uv + idx) *. work.(ints.(ust + idx)))
    done;
    work.(k) <- !acc /. floats.(k)
  done;
  (* Backward: L^T v = w. L column j's entries live in original rows,
     pivoted at later steps. *)
  for j = n - 1 downto 0 do
    let acc = ref work.(j) in
    for idx = ints.(j) to ints.(j + 1) - 1 do
      acc := !acc -. (floats.(lv + idx) *. work.(ints.(sr + ints.(lr + idx))))
    done;
    work.(j) <- !acc
  done;
  (* Undo the permutation: y = P^T v. *)
  for k = 0 to n - 1 do
    r.(ints.(pr + k)) <- work.(k)
  done
