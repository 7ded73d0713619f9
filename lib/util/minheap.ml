(* Slot [i] holds the entry [ids.(i)] under the key [keys.(i)].  The
   sift loops compare (key, id) inline: the build has no cross-module
   inlining, so a float handed to a comparison helper would be boxed
   on every step. *)
type t = { mutable keys : Float.Array.t; mutable ids : int array; mutable len : int }

let create ?(capacity = 16) () =
  let c = Int.max capacity 1 in
  { keys = Float.Array.create c; ids = Array.make c 0; len = 0 }

let is_empty h = h.len = 0
let size h = h.len

(* Move the entry in slot [i] up to its place. *)
let sift_up h i =
  let keys = h.keys and ids = h.ids in
  let key = Float.Array.get keys i and id = ids.(i) in
  let i = ref i and go = ref true in
  while !go && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = Float.Array.get keys parent and pid = ids.(parent) in
    if key < pk || (key = pk && id < pid) then begin
      Float.Array.set keys !i pk;
      ids.(!i) <- pid;
      i := parent
    end
    else go := false
  done;
  Float.Array.set keys !i key;
  ids.(!i) <- id

(* Move the entry in slot 0 down to its place. *)
let sift_down h =
  let keys = h.keys and ids = h.ids and n = h.len in
  let key = Float.Array.get keys 0 and id = ids.(0) in
  let i = ref 0 and go = ref true in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= n then go := false
    else begin
      let c =
        if l + 1 < n then begin
          let kl = Float.Array.get keys l and kr = Float.Array.get keys (l + 1) in
          if kr < kl || (kr = kl && ids.(l + 1) < ids.(l)) then l + 1 else l
        end
        else l
      in
      let kc = Float.Array.get keys c and ic = ids.(c) in
      if kc < key || (kc = key && ic < id) then begin
        Float.Array.set keys !i kc;
        ids.(!i) <- ic;
        i := c
      end
      else go := false
    end
  done;
  Float.Array.set keys !i key;
  ids.(!i) <- id

let add h ~key id =
  let n = h.len in
  if n = Array.length h.ids then begin
    let keys = Float.Array.create (2 * n) and ids = Array.make (2 * n) 0 in
    Float.Array.blit h.keys 0 keys 0 n;
    Array.blit h.ids 0 ids 0 n;
    h.keys <- keys;
    h.ids <- ids
  end;
  Float.Array.set h.keys n key;
  h.ids.(n) <- id;
  h.len <- n + 1;
  sift_up h n

let top h = if h.len = 0 then raise Not_found else h.ids.(0)
let top_key h = if h.len = 0 then raise Not_found else Float.Array.get h.keys 0

let pop h =
  if h.len = 0 then raise Not_found;
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then begin
    Float.Array.set h.keys 0 (Float.Array.get h.keys n);
    h.ids.(0) <- h.ids.(n);
    sift_down h
  end

let replace_top h ~key id =
  if h.len = 0 then raise Not_found;
  Float.Array.set h.keys 0 key;
  h.ids.(0) <- id;
  sift_down h
