(** The per-disk bad-sector map: one exact status cell per surface
    block.

    Media decay (see {!Dp_faults.Fault_model.Media_decay}) grows [Bad]
    cells; the first foreground or scrub touch of a bad block remaps it
    to the disk's spare pool ([Remapped]), after which every access pays
    the remap detour penalty but the data is safe.  The map is the
    persistent state the transient fault classes never had.

    Cells are kept one byte per block in pages of 1,024 blocks.  A page
    is allocated when its first defect grows; a page that holds no
    defect is not stored and reads as all [Good].  A fresh map
    therefore costs its page array, one word per page (65 words for the
    default 64 Ki-block surface), and a surface that never decays costs
    nothing more.  A 1 KiB page stays small enough for the minor heap.
    Every query answers exactly as a flat byte map would, {!digest}
    included. *)

type status = Good | Bad | Remapped
type t

val make : blocks:int -> t
(** All-[Good] map over a surface of [blocks] blocks.  Allocates no
    page.
    @raise Invalid_argument when [blocks < 1]. *)

val blocks : t -> int

val status : t -> int -> status
(** @raise Invalid_argument when the block is outside [[0, blocks)]. *)

val set_bad : t -> int -> bool
(** Grow a defect: [Good] becomes [Bad] (returns [true]); a block
    already [Bad] or [Remapped] is left alone (returns [false]).  The
    first defect on a page allocates that page. *)

val set_remapped : t -> int -> unit
(** Remap a [Bad] block to a spare.
    @raise Invalid_argument when the block is not [Bad]. *)

val next_defect : t -> int -> hi:int -> int
(** [next_defect t i ~hi] is the first block in [[i, hi)] that is not
    [Good], or [hi] when there is none.  Pages that hold no defect are
    skipped whole, so a clean range costs one check per page.
    @raise Invalid_argument when [i < 0] or [hi > blocks t]. *)

val bad_count : t -> int
(** Currently-bad (grown, not yet remapped) blocks. *)

val remapped_count : t -> int

val clear : t -> unit
(** Reset every cell to [Good] — the platter swap of a hot-spare
    replacement.  Drops every page. *)

val digest : t -> int64
(** Order-sensitive fingerprint of the whole map (FNV-1a over one byte
    per block: 0 [Good], 1 [Bad], 2 [Remapped]), for determinism
    checks.  Independent of which pages are allocated. *)
