module Ir = Dp_ir.Ir

(** Concrete, program-wide dependence graph at iteration-instance
    granularity.

    The Fig.-3 restructuring algorithm schedules individual loop
    iterations drawn from {e all} the nests of a program, so it needs
    dependences between iteration instances, including across nests.
    This module builds them exactly, by scanning every array-element
    access in original execution order and recording flow, anti and
    output edges (reads never depend on reads).

    Instances are identified by their position in original execution
    order ([seq]); iterating nests in program order and iterations in
    lexicographic order recovers them. *)

type instance = {
  seq : int;
  nest : int;
      (** position of the instance's nest in [prog.nests]: the index of
          its {!Ir.Compiled.nest} *)
  nest_id : int;
  iter : Dp_util.Ivec.t;
}

type graph = {
  instances : instance array;  (** indexed by [seq] *)
  preds : int array array;  (** [preds.(s)]: sorted dependence sources of [s] *)
  succs : int array array;  (** inverse of [preds] *)
}

val instances : ?accesses:int -> Ir.program -> instance array
(** The iteration instances in original execution order, indexed by
    [seq]: the one enumeration behind {!build} and every consumer that
    needs no dependences.  With [accesses], the walk stops as soon as
    the instances so far make that many array accesses (each
    statement's refs, per iteration), so it returns the shortest prefix
    of the program that issues them, or the whole program if it issues
    fewer.  The program must pass {!Ir.validate}. *)

val build : Ir.program -> graph
(** Enumerates the iteration space once ({!instances}), then makes
    two passes over that array with the {!Ir.Compiled} form of the
    program: one counts the writes per element, the other records the
    edges.  Element keys are row-major indices into one space over all
    arrays; a subscript outside its extent wraps modulo the extent,
    which can only add edges.
    @raise Invalid_argument if the program fails {!Ir.validate}. *)

val instance_count : graph -> int
val edge_count : graph -> int

(** {1 Legality of restructured orders} *)

type order_error =
  | Not_permutation of string
      (** an entry out of range, outside its order's part or listed
          twice, or a member left out *)
  | Inverted of { src : int; dst : int }
      (** a dependence [src -> dst] inside one part runs [dst] first *)

val check_parts : graph -> part:int array -> int array array -> (unit, order_error) result
(** [check_parts g ~part orders] checks a partitioned restructuring, the
    shape the reuse scheduler's [schedule_parts] produces.
    [part.(seq)] is the part of instance [seq], or [-1] when it belongs
    to none; [orders.(p)] must list every instance of part [p] exactly
    once and nothing else, and run every dependence whose two endpoints
    lie in part [p] source first — legality on the sub-graph the part
    induces.  Edges between parts are ignored: ordering them is the
    caller's business.  The first violation found is reported.  O(n + E).
    @raise Invalid_argument if [part] does not have one entry per
    instance. *)

val is_legal_order : ?member:(int -> bool) -> graph -> int array -> bool
(** The one-part case of {!check_parts}: [order] is a permutation of
    the instances [member] selects (default: all of them) and schedules
    every member after its member dependence predecessors. *)

val original_order : graph -> int array
