module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete

(** Mapping iteration instances to the I/O nodes they touch, and picking
    the single node an instance is clustered under when it touches
    several (the paper notes perfect disk reuse is impossible when "a
    given loop iteration can access different array elements that reside
    in different disks"; a clustering key resolves this). *)

type policy =
  | First_ref  (** the node of the textually first reference (default) *)
  | Min_disk  (** the smallest-numbered node touched *)
  | Majority  (** the node holding the most of the iteration's accesses *)

val policy_name : policy -> string
val all_policies : policy list

type table = {
  key : int array;  (** seq -> clustering key node (-1 for compute-only) *)
  disks : int;
      (** nodes a disk tour visits: the layout's disk count, widened to
          cover every key *)
}

val build_table : ?policy:policy -> Layout.t -> Ir.program -> Concrete.graph -> table
(** One pass over the instances.  Build it once per (layout, policy)
    and share it; the pipeline memoizes it per context
    ([Pipeline.cluster_table]). *)
