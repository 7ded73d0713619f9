type status = Good | Bad | Remapped

(* One byte per surface block, in pages of [page_blocks] blocks.  A page
   is 1 KiB, below the minor-heap size limit, so neither a fresh map nor
   its first defects reach the major heap. *)
let page_bits = 10
let page_blocks = 1 lsl page_bits
let page_mask = page_blocks - 1

type t = {
  blocks : int;
  pages : Bytes.t array;  (* [absent] for a page that holds no defect *)
  mutable bad : int;
  mutable remapped : int;
}

let absent = Bytes.empty
let good_c = '\000'
let bad_c = '\001'
let remapped_c = '\002'

let make ~blocks =
  if blocks < 1 then invalid_arg "Badmap.make: blocks must be >= 1";
  let pages = Array.make ((blocks + page_mask) lsr page_bits) absent in
  { blocks; pages; bad = 0; remapped = 0 }

let blocks t = t.blocks

let check t i =
  if i < 0 || i >= t.blocks then invalid_arg "Badmap: block out of range"

let cell t i =
  check t i;
  let page = t.pages.(i lsr page_bits) in
  if page == absent then good_c else Bytes.get page (i land page_mask)

let status t i =
  match cell t i with
  | c when c = good_c -> Good
  | c when c = bad_c -> Bad
  | _ -> Remapped

(* The last page covers only what is left of the surface. *)
let page_length t p = min page_blocks (t.blocks - (p lsl page_bits))

let set_bad t i =
  if cell t i = good_c then begin
    let p = i lsr page_bits in
    if t.pages.(p) == absent then t.pages.(p) <- Bytes.make (page_length t p) good_c;
    Bytes.set t.pages.(p) (i land page_mask) bad_c;
    t.bad <- t.bad + 1;
    true
  end
  else false

let set_remapped t i =
  if cell t i = bad_c then begin
    Bytes.set t.pages.(i lsr page_bits) (i land page_mask) remapped_c;
    t.bad <- t.bad - 1;
    t.remapped <- t.remapped + 1
  end
  else invalid_arg "Badmap.set_remapped: block is not bad"

let next_defect t i ~hi =
  if i < 0 || hi > t.blocks then invalid_arg "Badmap.next_defect: range out of the surface";
  let i = ref i and found = ref false in
  while (not !found) && !i < hi do
    let page = t.pages.(!i lsr page_bits) in
    let stop = min hi ((!i lor page_mask) + 1) in
    if page == absent then i := stop
    else begin
      while !i < stop && Bytes.get page (!i land page_mask) = good_c do
        incr i
      done;
      found := !i < stop
    end
  done;
  !i

let bad_count t = t.bad
let remapped_count t = t.remapped

let clear t =
  Array.fill t.pages 0 (Array.length t.pages) absent;
  t.bad <- 0;
  t.remapped <- 0

(* Fingerprint of the full map (FNV-1a over the cells): what the
   cross-domain determinism property compares.  An absent page folds in
   as its run of [Good] bytes, so the value does not depend on which
   pages happen to be allocated. *)
let digest t =
  let h = ref 0xcbf29ce484222325L in
  let fold c =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L
  in
  Array.iteri
    (fun p page ->
      if page == absent then
        for _ = 1 to page_length t p do
          fold good_c
        done
      else Bytes.iter fold page)
    t.pages;
  !h
