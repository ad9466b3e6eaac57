type 'a entry = { key : float; value : 'a }

type 'a t = { mutable heap : 'a entry array; mutable len : int }

let create () = { heap = [||]; len = 0 }

let is_empty t = t.len = 0

let size t = t.len

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.heap.(i).key < t.heap.(parent).key then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.heap.(l).key < t.heap.(!smallest).key then smallest := l;
  if r < t.len && t.heap.(r).key < t.heap.(!smallest).key then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key value =
  if t.len = Array.length t.heap then begin
    let cap = max 8 (2 * Array.length t.heap) in
    let heap = Array.make cap { key; value } in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  t.heap.(t.len) <- { key; value };
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let min_key t = if t.len = 0 then None else Some t.heap.(0).key

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.heap.(0) <- t.heap.(t.len);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end

let raw t = Array.init t.len (fun i -> (t.heap.(i).key, t.heap.(i).value))

let of_raw entries =
  { heap = Array.map (fun (key, value) -> { key; value }) entries; len = Array.length entries }
