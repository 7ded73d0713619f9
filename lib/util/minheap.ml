type t = { mutable data : int array; mutable len : int; cmp : int -> int -> int }

let create ?(capacity = 16) ?(cmp = Int.compare) () =
  { data = Array.make (max capacity 1) 0; len = 0; cmp }

let by_key (keys : float array) a b =
  let ka = keys.(a) and kb = keys.(b) in
  if ka < kb then -1 else if ka > kb then 1 else Int.compare a b

let is_empty h = h.len = 0
let size h = h.len

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && h.cmp h.data.(l) h.data.(!smallest) < 0 then smallest := l;
  if r < h.len && h.cmp h.data.(r) h.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let add h x =
  if h.len = Array.length h.data then begin
    let bigger = Array.make (2 * h.len) 0 in
    Array.blit h.data 0 bigger 0 h.len;
    h.data <- bigger
  end;
  h.data.(h.len) <- x;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let peek_min h = if h.len = 0 then raise Not_found else h.data.(0)

let pop_min h =
  if h.len = 0 then raise Not_found;
  let m = h.data.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.data.(0) <- h.data.(h.len);
    sift_down h 0
  end;
  m
