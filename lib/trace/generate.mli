module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Parallelize = Dp_restructure.Parallelize

(** Trace generation: turn a (possibly restructured, possibly
    parallelized) execution order into a timed I/O request stream.

    Each processor runs its instance stream with a private clock:
    compute cycles advance it, and every array-element access issues one
    page request at the current time and then waits the nominal service
    time (synchronous I/O at full disk speed — the open-loop arrival
    model of trace-driven simulation). *)

type stream = int array
(** Instance [seq] ids in execution order for one processor. *)

type segments = stream list
(** Barrier-separated phases of one processor: all processors finish
    segment [k] before any starts segment [k+1] (fork-join nests). *)

val trace :
  ?cost:Cost_model.t ->
  Layout.t ->
  Ir.program ->
  Concrete.instance array ->
  segments array ->
  Trace.t
(** [trace layout prog instances per_proc] with [per_proc.(p)] the
    segments of processor [p], whose entries index [instances] (the
    {!Concrete.instances} of [prog], or a prefix of them: no dependence
    graph is needed).  Each access is evaluated on the {!Ir.Compiled}
    form of [prog] and resolved by {!Layout.index} and {!Layout.locate};
    an instance's nest is found by position.

    Each processor writes one column run ({!Trace.Builder}), and the
    runs merge by index into a trace in {!Request.compare_arrival}
    order ({!Trace.merge}): each processor's clock never runs back, so
    its run is already in arrival order.  With one processor there is
    no merge and no sort.  Requests of one processor that tie on
    arrival (possible under a cost model with zero-cost steps) are
    sorted stably within that processor, by address: so a statement's
    read and write of one element stay in program order.
    @raise Invalid_argument if the processors' segment counts differ.
    @raise Layout.Out_of_bounds when a subscript leaves its array's
    extent. *)

(** {1 Stream builders} *)

val single_stream : order:int array -> segments array
(** One processor, one segment: the given order. *)

val original_segments :
  Ir.program -> Concrete.graph -> Parallelize.assignment -> segments array
(** Per-processor streams in original execution order, one segment per
    nest (fork-join barriers between nests), under the given assignment:
    the {!Parallelize.nest_parts} buckets, filled in one pass. *)

(** {1 Summary} *)

type summary = {
  requests : int;
  bytes : int;
  makespan_ms : float;  (** last arrival + nominal service *)
  compute_ms : float;  (** total compute time across processors *)
  io_ms : float;  (** total nominal I/O time across processors *)
}

val summarize_trace : ?cost:Cost_model.t -> Trace.t -> summary
(** One pass over the trace's columns in order, with per-processor
    arrays of the trace's processor count: each processor's position on
    disk charges seeks as trace generation does, and its compute time
    sums the arrival gaps after its own nominal completions.
    [compute_ms] adds the per-processor totals in processor order. *)

val summarize : ?cost:Cost_model.t -> Request.t list -> summary
(** [summarize_trace] of {!Trace.of_list}: a list adapter kept for the
    benchmark's traced pass until it runs the CLI's own entry points. *)

val io_fraction : summary -> float
(** Fraction of busy time spent in I/O: the paper reports 75-82% for its
    applications; the workloads are calibrated against this. *)
