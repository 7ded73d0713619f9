module Ir = Dp_ir.Ir
module App = Dp_workloads.App
module Layout = Dp_layout.Layout
module Striping = Dp_layout.Striping
module Concrete = Dp_dependence.Concrete
module Cluster = Dp_restructure.Cluster
module Generate = Dp_trace.Generate
module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
module Hint = Dp_trace.Hint
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Oracle = Dp_oracle.Oracle
module Cachefs = Dp_cachefs.Cachefs

(** The one compile→trace→simulate pipeline.

    The paper's workflow is a fixed sequence — parse, dependence
    analysis, disk-reuse restructuring (Fig. 3 / Sec 6.2), trace
    generation, trace-driven simulation.  A {!t} is the shared
    compilation context of one program: each stage is a named, memoized
    step keyed by the knobs that actually change its output (processor
    count, restructuring {!mode}, clustering policy), so the dependence
    graph and the Base trace are computed once and shared across every
    version of the evaluation matrix instead of rebuilt per row.

    Every stage follows one rule: look the key up in the stage's memo
    table, then in the persistent store if the stage persists; on a
    miss, force the upstream stages, then build under a [pipeline.*]
    {!Dp_obs.Prof} span and count the build.  The memo tables are
    protected by a per-context mutex, taken around each lookup and each
    build but never while upstream stages are forced, so locks never
    nest: a context may be shared by several domains
    ({!Dp_util.Domain_pool}), builds are serialized, and everything
    downstream (the simulations — the dominant cost) runs in parallel.

    A context may additionally be backed by a persistent {!Cachefs}
    store: the trace and hint stages then consult the store before
    building (keyed by the context {!digest}, so results are shared
    across processes and invocations) and write through after.  Both
    persist as binary trace frames ({!Dp_trace.Bin}, its format version
    part of the key): a trace with its scheduler round count in the
    header, a hint stream as a hints-only frame.  The store's failure
    contract keeps the pipeline oblivious — any disk problem, including
    a frame that verifies but does not decode, is a rebuild, never a
    hit.  The other stages are never persisted: they are rebuilt in
    memory (from the trace, for {!summary} and {!reference}). *)

type t

(** {1 Restructuring modes}

    The three execution-order families of the evaluation matrix.  The
    version rows map onto them as: Base/TPM/DRPM and the Oracle bounds
    replay {!Original}; T-*-s is {!Reuse_single}; T-*-m is
    {!Reuse_multi}. *)

type mode =
  | Original
      (** unmodified code: original order at 1 processor, conventional
          loop parallelization with fork-join nests otherwise *)
  | Reuse_single
      (** the single-CPU disk-reuse algorithm (Fig. 3): the whole
          program at 1 processor; applied to each processor's share of
          the conventionally parallelized code (barriers kept) at
          several *)
  | Reuse_multi
      (** the disk-layout-aware parallelization of Sec 6.2: the data
          space assignment spans all nests, each processor tours its
          disk share, no inter-nest synchronization; needs [procs > 1] *)

val mode_name : mode -> string
val mode_of_name : string -> mode option

(** {1 Building a context} *)

val create :
  ?cache:Cachefs.t ->
  ?origin:string ->
  ?default:Striping.t ->
  ?overrides:(string * Striping.t) list ->
  Ir.program ->
  t
(** A context over an in-memory program; the layout is
    [Layout.make ?default ~overrides program].  [cache] (default none:
    purely in-memory) attaches a persistent store the trace and hint
    stages read through. *)

val of_app : ?cache:Cachefs.t -> App.t -> t
(** A context over a built-in workload (its striping and overrides). *)

val load : ?cache:Cachefs.t -> string -> t
(** [load source] accepts a [.dpl] file path or [app:NAME] for a
    built-in workload — the one loader behind every CLI entry point.
    @raise Failure on an unknown [app:] name; parse errors propagate
    from {!Dp_lang.Resolver.load_file}. *)

val derive : layout:Layout.t -> t -> t
(** A context over the same program with a different disk layout.  The
    dependence graph depends only on the program, so it is shared with
    the parent (already-built graphs are not rebuilt); every
    layout-dependent stage starts cold. *)

val program : t -> Ir.program
val layout : t -> Layout.t
val origin : t -> string
val disks : t -> int

val app : t -> App.t
(** The context as a workload App (paper columns zeroed for loaded
    sources) — the adapter the harness matrix builders consume. *)

val digest : t -> string
(** The content address of the context: a hex digest over the program
    and its layout, serialized structurally.  Two contexts with equal
    digests produce byte-identical traces and hints, so it keys the
    persistent cache across processes. *)

val cache : t -> Cachefs.t option
(** The persistent store backing this context, if any.  [derive]d
    contexts inherit it. *)

(** {1 Stages}

    Each accessor returns the memoized stage result, building it on
    first use.  [cluster] selects the clustering key policy of the
    reuse scheduler (default {!Cluster.First_ref}); it is part of the
    memo key. *)

val graph : t -> Concrete.graph
(** Stage 1: the concrete iteration-instance dependence graph. *)

val cluster_table : ?cluster:Cluster.policy -> t -> Cluster.table
(** Stage 1b: the clustering key of every instance under a policy
    ({!Cluster.build_table}), built once per (context, policy) and
    shared by both restructured modes at every processor count. *)

val streams :
  ?cluster:Cluster.policy -> t -> procs:int -> mode -> Generate.segments array * int option
(** Stage 2: per-processor execution streams for a mode, plus the
    scheduler round count for the restructured modes ([None] for
    {!Original}).  A restructured mode partitions the instances — one
    part per processor and nest for {!Reuse_single} at several
    processors, one per processor for {!Reuse_multi}, one part at one
    processor — and schedules every part in one
    {!Dp_restructure.Reuse_scheduler.schedule_parts} pass over the
    memoized {!cluster_table}; the round count is the largest part's.
    @raise Invalid_argument for {!Reuse_multi} with [procs = 1] (the
    layout-aware scheme needs several processors) or [procs < 1]. *)

val columns : ?cluster:Cluster.policy -> t -> procs:int -> mode -> Trace.t
(** Stage 3: the timed I/O request trace of the mode's streams, as
    columns.  The stage stores the trace together with the round count
    of {!streams}; a warm context decodes it from the store straight
    into columns ({!Dp_trace.Bin.decode}). *)

val trace : ?cluster:Cluster.policy -> t -> procs:int -> mode -> Request.t list
(** {!columns} as a request list ({!Trace.to_list}): an adapter kept for
    the benchmark's traced pass until it runs the CLI's own entry
    points. *)

val rounds : ?cluster:Cluster.policy -> t -> procs:int -> mode -> int option
(** The round count of {!streams}, read from the {!trace} stage: a warm
    context answers it from the cached trace without scheduling, and a
    cold one builds the trace if no caller has yet. *)

val summary : t -> procs:int -> mode -> Generate.summary
(** Stage 3a: {!Generate.summarize_trace} of the mode's trace under the
    default clustering policy, built once per (procs, mode) and shared
    by every matrix row that replays that trace.  Kept in memory only,
    never written to the persistent store: a warm run rebuilds it from
    the cached trace. *)

val reference : t -> procs:int -> mode -> Oracle.reference
(** Stage 3b: the oracle's no-PM reference run of the mode's trace
    ({!Oracle.reference} on the context's disks), built once per
    (procs, mode) and shared by the [Oracle-*] rows, each of which only
    adds its {!Oracle.bound}, and by a clean Base row, whose result is
    the reference's run.  In memory only, like {!summary}. *)

val hints :
  ?cluster:Cluster.policy ->
  t ->
  procs:int ->
  space:Oracle.space ->
  mode ->
  Hint.t list
(** Stage 4: the compiler power-hint stream planned on the mode's
    nominal trace, for one transition space. *)

val hints_for :
  ?cluster:Cluster.policy -> t -> procs:int -> policy:Policy.t -> mode -> Hint.t list
(** The hint stream the given policy executes: proactive TPM gets
    {!Oracle.Tpm_space} hints, proactive DRPM {!Oracle.Drpm_space},
    reactive policies get none.  This is the single definition of the
    policy→hint-space mapping (formerly duplicated between [dpcc] and
    the harness runner). *)

val simulate :
  ?cluster:Cluster.policy ->
  ?knobs:Dp_disksim.Knobs.t ->
  ?obs:Dp_obs.Sink.t ->
  t ->
  procs:int ->
  policy:Policy.t ->
  mode ->
  Engine.result
(** Stage 5: trace-driven simulation of the mode under a policy, with
    the policy's hint stream ({!hints_for}) attached and the run's
    reliability [knobs] ({!Dp_disksim.Knobs}).  [obs] receives
    the run's events; pass a {!Dp_disksim.Timeline.recorder} to chart
    it.  Simulation results are not memoized — knobs and sinks make
    runs observationally distinct; the expensive upstream stages
    are. *)

(** {1 Stage accounting} *)

type stats = {
  graph_builds : int;
  cluster_builds : int;  (** {!cluster_table} builds: one per policy used *)
  stream_builds : int;
  trace_builds : int;
  hint_builds : int;
  summary_builds : int;  (** {!summary} builds: one per trace summarized *)
  reference_builds : int;
      (** {!reference} builds: one per trace bounded or replayed by a
          clean Base row *)
  memo_hits : int;  (** stage lookups answered from the memo tables *)
  disk_hits : int;  (** stage lookups answered from the persistent cache *)
  disk_misses : int;  (** persistent-cache probes that fell through to a build *)
  corrupt_evictions : int;  (** persistent entries quarantined as corrupt *)
}

val stats : t -> stats
(** Cumulative build/hit counters — the observable half of the
    memoization contract ([graph_builds] stays 1 however many matrix
    rows a context serves).  The [disk_*] fields mirror the attached
    store's {!Cachefs.counters} (all zero without one), so profiling
    output can distinguish memory hits from disk hits. *)
