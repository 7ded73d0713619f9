(** RAID-level striping inside one I/O node — the second level of the
    paper's two-level scheme (Section 2, Fig. 1): "The stripes assigned
    to an I/O node are further striped at the RAID level...  The RAID
    level striping, however, is hidden from the software."

    The compiler never sees this level; power management operates at
    node granularity regardless ("spinning down a disk" means the whole
    node's disks).  The mapping is still modeled so node-local layouts
    can be inspected and the one-disk-per-node default of the paper's
    experiments is a provable special case. *)

type t = { unit_bytes : int; disks : int }

val make : unit_bytes:int -> disks:int -> t
(** @raise Invalid_argument unless both are positive. *)

val single_disk : t
(** The paper's experimental configuration: "each I/O node has one disk
    and no further striping is applied". *)

val place : t -> int -> int * int
(** [place raid node_lba] maps a node-local byte position to
    [(member_disk, member_lba)]. *)

val member_of_lba : t -> int -> int
val members_of_span : t -> offset:int -> size:int -> int list
(** Distinct member disks a node-local byte range touches, ascending. *)
