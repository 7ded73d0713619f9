module Fault_model = Dp_faults.Fault_model

type config = {
  surface_blocks : int;
  block_bytes : int;
  scrub_budget_ms : float;
  scrub_chunk_blocks : int;
  rebuild_chunk_blocks : int;
  rebuild_blocks : int;
  fail_threshold : int;
}

let config ?(surface_blocks = 65_536) ?(block_bytes = 4096) ?(scrub_budget_ms = 0.0)
    ?(scrub_chunk_blocks = 64) ?(rebuild_chunk_blocks = 256) ?rebuild_blocks
    ?(fail_threshold = 64) () =
  (* Diagnostics echo the offending value: a knob threaded through
     several CLI layers is much easier to trace back when the message
     shows what actually arrived. *)
  let badi field got =
    invalid_arg (Printf.sprintf "Repair.config: %s must be >= 1 (got %d)" field got)
  in
  if surface_blocks < 1 then badi "surface_blocks" surface_blocks;
  if block_bytes < 1 then badi "block_bytes" block_bytes;
  if scrub_budget_ms < 0.0 then
    invalid_arg
      (Printf.sprintf "Repair.config: scrub_budget_ms must be >= 0 (got %g)" scrub_budget_ms);
  if scrub_chunk_blocks < 1 then badi "scrub_chunk_blocks" scrub_chunk_blocks;
  if rebuild_chunk_blocks < 1 then badi "rebuild_chunk_blocks" rebuild_chunk_blocks;
  let rebuild_blocks = Option.value rebuild_blocks ~default:surface_blocks in
  if rebuild_blocks < 1 then badi "rebuild_blocks" rebuild_blocks;
  if fail_threshold < 1 then badi "fail_threshold" fail_threshold;
  {
    surface_blocks;
    block_bytes;
    scrub_budget_ms;
    scrub_chunk_blocks;
    rebuild_chunk_blocks;
    rebuild_blocks;
    fail_threshold;
  }

let default = config ()

(* The mutable per-disk repair state: the bad-sector map of the current
   platters, spare-pool consumption, the scrub cursor, and — once the
   slot has failed — rebuild progress onto the hot spare. *)
type media = {
  map : Badmap.t;
  mutable grown : int;  (* defects ever grown on the current platters *)
  mutable spare_used : int;
  mutable exhausted : bool;  (* a bad block could not be remapped: no spare left *)
  mutable failed : bool;
  mutable rebuilt : int;  (* blocks copied onto the hot spare so far *)
  mutable cursor : int;  (* next scrub position *)
}

type t = { cfg : config; disks : int; media : media array }

let make cfg ~disks =
  if disks < 1 then
    invalid_arg (Printf.sprintf "Repair.make: disks must be >= 1 (got %d)" disks);
  {
    cfg;
    disks;
    media =
      Array.init disks (fun _ ->
          {
            map = Badmap.make ~blocks:cfg.surface_blocks;
            grown = 0;
            spare_used = 0;
            exhausted = false;
            failed = false;
            rebuilt = 0;
            cursor = 0;
          });
  }

let cfg t = t.cfg
let is_failed t d = t.media.(d).failed
let grown t d = t.media.(d).grown
let spare_used t d = t.media.(d).spare_used
let map_digest t d = Badmap.digest t.media.(d).map

(* Mirror pairing: even disks pair with their odd neighbor (0-1, 2-3,
   ...); an unpaired trailing disk mirrors onto its predecessor.  A
   single-disk array has no mirror, so its disks can never fail — they
   keep serving with remap penalties instead. *)
let mirror_of t d =
  if t.disks < 2 then None
  else begin
    let m = d lxor 1 in
    Some (if m >= t.disks then d - 1 else m)
  end

let grow t ~disk ~block =
  let m = t.media.(disk) in
  if (not m.failed) && Badmap.set_bad m.map block then m.grown <- m.grown + 1

let remap m i =
  Badmap.set_remapped m.map i;
  m.spare_used <- m.spare_used + 1

type touch = { remapped : int; penalty_hits : int }

let no_touch = { remapped = 0; penalty_hits = 0 }

(* Remap or count every defect in blocks [[i, upto)], in block order,
   on top of [remapped] and [hits] already found.  A range without a
   defect returns the shared [no_touch] and allocates nothing. *)
let rec touch_range m ~spare ~upto i remapped hits =
  let i = Badmap.next_defect m.map i ~hi:upto in
  if i >= upto then
    if remapped = 0 && hits = 0 then no_touch else { remapped; penalty_hits = hits }
  else
    match Badmap.status m.map i with
    | Badmap.Good -> touch_range m ~spare ~upto (i + 1) remapped hits
    | Badmap.Remapped -> touch_range m ~spare ~upto (i + 1) remapped (hits + 1)
    | Badmap.Bad ->
        if m.spare_used < spare then begin
          remap m i;
          touch_range m ~spare ~upto (i + 1) (remapped + 1) hits
        end
        else begin
          m.exhausted <- true;
          touch_range m ~spare ~upto (i + 1) remapped hits
        end

(* Foreground access over [lba, lba + bytes): remap every bad block on
   first touch (while spares last), count the detour penalty for every
   already-remapped block.  The block range wraps past the end of the
   surface at most once. *)
let touch t ~disk ~spare ~lba ~bytes =
  let m = t.media.(disk) in
  let bb = t.cfg.block_bytes and surface = t.cfg.surface_blocks in
  let lo = lba / bb and hi = (lba + max bytes 1 - 1) / bb in
  let start = lo mod surface in
  let stop = start + min (hi - lo + 1) surface in
  let r = touch_range m ~spare ~upto:(min stop surface) start 0 0 in
  if stop <= surface then r
  else touch_range m ~spare ~upto:(stop - surface) 0 r.remapped r.penalty_hits

(* Failure policy: a slot is retired when its platters have grown past
   the defect threshold or a bad block could not be remapped any more —
   but only while its mirror is healthy (degraded reads need somewhere
   to go), so two paired disks can never be down at once. *)
let should_fail t ~disk =
  let m = t.media.(disk) in
  (not m.failed)
  && (m.grown >= t.cfg.fail_threshold || m.exhausted)
  && (match mirror_of t disk with Some p -> not t.media.(p).failed | None -> false)

let mark_failed t ~disk =
  let m = t.media.(disk) in
  m.failed <- true;
  m.rebuilt <- 0;
  (* The hot spare brings fresh platters: the old map (and its grown
     defects) leaves with the failed drive. *)
  Badmap.clear m.map;
  m.grown <- 0;
  m.spare_used <- 0;
  m.exhausted <- false;
  m.cursor <- 0

(* One scrub chunk, split into a pure peek (so the engine can price the
   verification read plus any remaps before committing) and the commit
   that performs them.  A chunk never spans the surface wrap, so pass
   accounting stays exact. *)
let scrub_peek t ~disk ~spare =
  let m = t.media.(disk) in
  let chunk = min t.cfg.scrub_chunk_blocks (t.cfg.surface_blocks - m.cursor) in
  let hi = m.cursor + chunk in
  let found = ref 0 in
  let left = ref (max 0 (spare - m.spare_used)) in
  let i = ref (Badmap.next_defect m.map m.cursor ~hi) in
  while !i < hi && !left > 0 do
    if Badmap.status m.map !i = Badmap.Bad then begin
      incr found;
      decr left
    end;
    i := Badmap.next_defect m.map (!i + 1) ~hi
  done;
  (chunk, !found)

let scrub_commit t ~disk ~spare =
  let m = t.media.(disk) in
  let chunk = min t.cfg.scrub_chunk_blocks (t.cfg.surface_blocks - m.cursor) in
  let hi = m.cursor + chunk in
  let found = ref 0 in
  let i = ref (Badmap.next_defect m.map m.cursor ~hi) in
  while !i < hi && m.spare_used < spare do
    if Badmap.status m.map !i = Badmap.Bad then begin
      remap m !i;
      incr found
    end;
    i := Badmap.next_defect m.map (!i + 1) ~hi
  done;
  m.cursor <- hi;
  let pass_done = m.cursor >= t.cfg.surface_blocks in
  if pass_done then m.cursor <- 0;
  (!found, pass_done)

(* One rebuild slice: [blocks] more blocks copied mirror -> hot spare.
   Completing the copy restores the slot to healthy service. *)
let rebuild_step t ~disk ~blocks =
  let m = t.media.(disk) in
  if not m.failed then invalid_arg "Repair.rebuild_step: disk is not failed";
  m.rebuilt <- m.rebuilt + blocks;
  let done_ = m.rebuilt >= t.cfg.rebuild_blocks in
  if done_ then m.failed <- false;
  done_
