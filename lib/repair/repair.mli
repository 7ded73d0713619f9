(** The persistent-failure domain: grown bad sectors, spare-pool
    remapping, background scrubbing, whole-disk failure and hot-spare
    rebuild.

    This module holds the media state only — which blocks are bad, how
    much spare pool is left, where the scrub cursor stands, whether a
    slot is failed and how far its rebuild has progressed.  It counts
    nothing: {!touch}, {!scrub_commit} and {!rebuild_step} return what
    each action did, and {!Dp_disksim.Engine}, which consults this state
    and prices each recovery action on the owning disk's own timeline,
    counts the actions in its per-disk state along with every charge:

    - {b remap} (first touch of a bad block): an extra seek + one spare
      block write, after which the block is [Remapped] — the cost shape
      of arXiv 1908.01167;
    - {b remapped access}: every later access to a remapped block pays
      the detour penalty ({!Dp_disksim.Disk_model.t.remap_penalty_ms});
    - {b scrub}: low-priority verification reads over idle windows,
      bounded by a per-gap budget and preempted by foreground arrivals;
    - {b failure}: when grown defects cross the threshold (or the spare
      pool runs dry), the slot is retired — reads are reconstructed from
      its mirror while a rebuild stream copies onto the hot spare;
    - {b rebuild completion} restores the slot to healthy service.

    All state is deterministic given the injector's decay stream, so
    runs are byte-identical across [--jobs] widths. *)

type config = {
  surface_blocks : int;  (** bad-sector map span per disk *)
  block_bytes : int;  (** remap granularity *)
  scrub_budget_ms : float;  (** scrub time carved from each idle gap; 0 disables *)
  scrub_chunk_blocks : int;  (** blocks verified per scrub read *)
  rebuild_chunk_blocks : int;  (** blocks copied per rebuild slice *)
  rebuild_blocks : int;  (** blocks to copy before a failed slot is restored *)
  fail_threshold : int;  (** grown defects that retire a disk *)
}

val config :
  ?surface_blocks:int ->
  ?block_bytes:int ->
  ?scrub_budget_ms:float ->
  ?scrub_chunk_blocks:int ->
  ?rebuild_chunk_blocks:int ->
  ?rebuild_blocks:int ->
  ?fail_threshold:int ->
  unit ->
  config
(** Defaults: a 64 Ki-block surface of 4 KiB blocks (256 MiB of mapped
    address space), scrubbing {e off}, 64-block scrub chunks, 256-block
    rebuild slices, [rebuild_blocks = surface_blocks], failure at 64
    grown defects.  @raise Invalid_argument on a non-positive size or a
    negative budget. *)

val default : config
(** [config ()] — the configuration the engine arms automatically when
    a fault spec enables media decay.  Scrub is off by default, so a
    rate-0 decay run stays byte-identical to a clean one. *)

type t

val make : config -> disks:int -> t
(** One clean {!Badmap} per disk.  A clean map holds no page, so the
    default 8-disk state is about 650 words on the minor heap.
    @raise Invalid_argument when [disks < 1]. *)

val cfg : t -> config
val is_failed : t -> int -> bool
val grown : t -> int -> int
val spare_used : t -> int -> int

val map_digest : t -> int -> int64
(** {!Badmap.digest} of one disk's map — the decay-state fingerprint the
    cross-domain determinism property compares. *)

val mirror_of : t -> int -> int option
(** The disk holding [d]'s replica: its even/odd neighbor, or the
    predecessor for an unpaired trailing disk.  [None] on a single-disk
    array (which therefore can never enter degraded mode). *)

val grow : t -> disk:int -> block:int -> unit
(** A decay defect at [block] (no-op while the slot is failed, or when
    the block is already bad/remapped). *)

type touch = { remapped : int; penalty_hits : int }

val touch : t -> disk:int -> spare:int -> lba:int -> bytes:int -> touch
(** Foreground access over [[lba, lba + bytes)]: remaps every bad block
    in range on first touch while the [spare] pool lasts (marking the
    pool exhausted otherwise), and counts the accesses to
    already-remapped blocks.  The engine charges [remapped] remap writes
    and [penalty_hits] detour penalties.  A range that holds no defect
    costs one check per map page and allocates nothing: it returns a
    shared zero result. *)

val should_fail : t -> disk:int -> bool
(** The slot must be retired now: defects past the threshold or spares
    exhausted — and its mirror is healthy (paired disks are never both
    down; a mirror-less array never fails). *)

val mark_failed : t -> disk:int -> unit
(** Retire the slot onto its hot spare: fresh (clear) map, spare pool
    and scrub cursor; rebuild starts at zero. *)

val scrub_peek : t -> disk:int -> spare:int -> int * int
(** [(chunk_blocks, bad_found)] for the next scrub chunk at the cursor —
    pure, so the engine can price the chunk read plus [bad_found] remaps
    and only commit when they fit the gap's scrub budget.  [bad_found]
    is capped by the remaining spare pool.  Map pages that hold no
    defect are skipped whole, here and in {!scrub_commit}. *)

val scrub_commit : t -> disk:int -> spare:int -> int * bool
(** Perform the peeked chunk: remap what was found, advance the cursor.
    [(found, pass_completed)]: [found] is the peek's [bad_found]. *)

val rebuild_step : t -> disk:int -> blocks:int -> bool
(** Account one rebuild slice; [true] when the copy is complete and the
    slot is restored to healthy service.
    @raise Invalid_argument when the disk is not failed. *)
