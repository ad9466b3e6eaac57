type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ~dummy = { data = Array.make 8 dummy; len = 0; dummy }

let length b = b.len

let grow b =
  let data = Array.make (2 * Array.length b.data) b.dummy in
  Array.blit b.data 0 data 0 b.len;
  b.data <- data

let push b x =
  if b.len = Array.length b.data then grow b;
  b.data.(b.len) <- x;
  b.len <- b.len + 1;
  b.len - 1

let check b i = if i < 0 || i >= b.len then invalid_arg "Vecbuf: index out of bounds"

let get b i =
  check b i;
  b.data.(i)

let set b i x =
  check b i;
  b.data.(i) <- x

let to_array b = Array.sub b.data 0 b.len

let iteri f b =
  for i = 0 to b.len - 1 do
    f i b.data.(i)
  done

let reserve_ints a ~used n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 used;
    b
  end

let reserve_floats a ~used n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0. in
    Array.blit a 0 b 0 used;
    b
  end
