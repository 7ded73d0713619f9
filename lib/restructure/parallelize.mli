module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete

(** Iteration-to-processor assignment for multiprocessor execution.

    {!conventional} is the loop-based parallelization of Section 6.1:
    each nest independently parallelizes its outermost parallelizable
    loop and block-partitions it over the processors, so a processor gets
    the positionally corresponding chunk of every nest.

    {!layout_aware} is the paper's Section 6.2 scheme: every processor
    receives, from {e every} nest, the iterations whose anchor-array
    element lives on the processor's share of the I/O nodes ("this
    parallelization scheme in a sense partitions the disks in the
    storage system across the processors by localizing accesses to each
    disk to a single processor").  The per-nest demanded distributions
    and their majority-vote unification ({!demanded_distribution},
    {!unified_distribution}) characterize the data-space agreement the
    paper derives; the disk partition is their layout-aware refinement:
    with striped files it is the unique block assignment under which a
    processor's region is served by a dedicated disk subset. *)

type assignment = {
  procs : int;
  owner : int array;  (** instance seq -> processor id in [0, procs) *)
}

val conventional : Ir.program -> Concrete.graph -> procs:int -> assignment

val nest_parts : Ir.program -> Concrete.graph -> assignment -> int array
(** The fork-join buckets of an assignment, in one pass: instance [seq]
    of the [k]-th nest of [prog.nests] owned by processor [p] is in part
    [p * nests + k].  A processor's parts are contiguous and in program
    nest order, one per barrier-separated segment. *)

type distribution = Row_block | Col_block

val pp_distribution : Format.formatter -> distribution -> unit

val demanded_distribution : Ir.nest -> string -> distribution option
(** The distribution of array [name] that nest's conventional
    parallelization induces: [Row_block] when the nest's parallel loop
    index appears in the first subscript dimension of the references to
    the array, [Col_block] when it appears in a later dimension, [None]
    when the nest does not reference the array or no loop parallelizes. *)

val unified_distribution : Ir.program -> string -> distribution
(** Majority vote of {!demanded_distribution} over all nests (ties and
    the no-information case fall back to [Row_block]). *)

val layout_aware :
  ?anchor:string ->
  Layout.t ->
  Ir.program ->
  Concrete.graph ->
  procs:int ->
  assignment
(** [anchor] selects the array whose placement drives iteration
    assignment; by default the most-referenced array of the program.
    An iteration is owned by the processor whose disk share holds its
    first anchor-array element; iterations not touching the anchor
    follow the first array element they do touch (their affinity
    class); compute-only iterations follow their nest's conventional
    chunk.  Disk [d] of [n] belongs to processor [d * procs / n]. *)

val proc_of_disk : disks:int -> procs:int -> int -> int

val proc_counts : assignment -> int array
(** Instances per processor. *)
