module Concrete = Dp_dependence.Concrete

(** The paper's core contribution for single-processor execution: the
    disk-reuse code-restructuring algorithm of Fig. 3, realized over the
    concrete iteration-instance dependence graph.

    The algorithm visits I/O nodes round-robin, starting from a given
    start disk (node 0 by default).  A visit of node [d] schedules — in
    original execution order — the iterations clustered under [d] whose
    dependence predecessors were all scheduled {e when the visit
    started} (the Omega-computed set Q_di of Fig. 3), extended
    dynamically only by same-nest, same-disk successors (the generated
    loop nest enumerates a nest's iterations in original order, so
    intra-nest dependences are honored by construction).  Iterations
    released by another nest or another disk wait for a later visit,
    exactly as in the Fig. 4 walkthrough, where iteration 7 runs in the
    second while-loop round although its predecessor 6 ran in the
    first.  A dependence-free program is fully scheduled in one round,
    visiting each disk exactly once.  Compute-only instances (touching
    no disk) are scheduled greedily as soon as they become ready,
    attached to the current visit. *)

type schedule = {
  order : int array;
      (** instance [seq] ids in their new execution order (a permutation
          of the scheduled instances) *)
  rounds : int;  (** executed iterations of the Fig.-3 while-loop *)
  visits : (int * int) list;
      (** per disk visit in order: (disk, iterations scheduled) — empty
          visits are omitted *)
}

val schedule_parts :
  Cluster.table ->
  Concrete.graph ->
  part:int array ->
  start_disks:int array ->
  schedule array
(** Restructure every part of a partition in one pass — how the
    single-processor algorithm is applied to each processor's share of a
    parallelized program (§6.1: one part per processor and nest; §6.2:
    one part per processor).  [part.(seq)] is the part of instance
    [seq], in [\[0, Array.length start_disks)], or [-1] to leave it
    unscheduled; part [p]'s disk tour starts at [start_disks.(p)].
    Result [p] is part [p]'s schedule, exactly what scheduling that part
    alone would give: only dependences with both endpoints in one part
    constrain its order, and those crossing parts are ignored — ordering
    the parts against each other (barriers, processor streams) is the
    caller's business.  Indegrees are counted once for all parts, so the
    whole partition costs O(n + E) plus the tours.
    @raise Invalid_argument if [part] or the table does not have one
    entry per instance, or a part id is out of range. *)

val schedule : ?start_disk:int -> Cluster.table -> Concrete.graph -> schedule
(** The one-part case: restructure the whole program.  [start_disk]
    rotates the round-robin visit order (default 0). *)

val disk_switches : Cluster.table -> int array -> int
(** Number of adjacent pairs in an order whose clustering keys differ —
    the locality metric the restructuring minimizes (lower is better).
    Compute-only instances ([-1] keys) are transparent. *)
