module Ir = Dp_ir.Ir
module Striping = Dp_layout.Striping
module Concrete = Dp_dependence.Concrete

(** Disk-layout reorganization — the paper's stated future work ("a
    framework that combines application code restructuring with disk
    layout reorganization under a unified optimizer"), following the
    authors' ICS'05 layout paper: choose each file's striping parameters
    (start disk and stripe-unit size, here in whole array rows) so the
    restructured code clusters better.

    The optimizer runs coordinate descent over the arrays: for each
    array it tries every start disk and each candidate rows-per-stripe,
    keeping the combination that minimizes a sampled cost

    {v cost = avg distinct I/O nodes touched per iteration
           + imbalance penalty (normalized stddev of per-node load) v}

    The first term is the paper's disk-reuse obstacle (an iteration
    spanning several nodes keeps several nodes awake through its visit);
    the second keeps the optimizer from piling every array onto one node,
    which would serialize the I/O. *)

type result = {
  stripings : (string * Striping.t) list;
  cost : float;  (** final sampled cost *)
  baseline_cost : float;  (** cost of the initial stripings *)
}

val cost :
  ?sample:int ->
  Ir.program ->
  Concrete.graph ->
  stripings:(string * Striping.t) list ->
  float
(** The objective on its own (useful for reporting).  [sample] caps the
    number of iteration instances inspected (default 20,000, evenly
    strided).
    @raise Invalid_argument if [sample < 1]. *)

val optimize :
  ?rows_options:int list ->
  ?sample:int ->
  ?sweeps:int ->
  factor:int ->
  initial:(string * Striping.t) list ->
  Ir.program ->
  Concrete.graph ->
  result
(** [rows_options] are the candidate stripe heights in array rows
    (default [[1; 2; 4]]); [sweeps] is the number of coordinate-descent
    passes (default 2).  [initial] must provide a striping for every
    array of the program.
    @raise Invalid_argument if an array lacks an initial striping. *)
