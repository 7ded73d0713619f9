module App = Dp_workloads.App
module Engine = Dp_disksim.Engine
module Generate = Dp_trace.Generate
module Pipeline = Dp_pipeline.Pipeline

(** Runs one (application, version, processor-count) cell of the
    evaluation matrix: restructure/parallelize per the version, generate
    the trace, simulate under the version's policy.

    All compilation stages live in {!Dp_pipeline.Pipeline}; the runner
    only maps version semantics ({!Version.mode}, policy, hints) onto
    pipeline stages and drives the engine.  A context is safe to share
    across domains — matrix rows of the same application reuse its
    memoized dependence graph, streams and traces. *)

type ctx = Pipeline.t

val context : ?cache:Dp_cachefs.Cachefs.t -> App.t -> ctx
(** Builds the pipeline context of an application (its layout, and the
    memoized stages on demand); reuse it across versions — graph
    construction and trace generation dominate the cost of a run and
    are shared between rows.  [cache] attaches a persistent stage store
    (see {!Dp_pipeline.Pipeline.create}), sharing traces and hint
    streams across processes as well. *)

type run = {
  version : Version.t;
  procs : int;
  result : Engine.result;
  summary : Generate.summary;
  scheduler_rounds : int option;  (** for restructured versions *)
  obs : Dp_obs.Report.disk_report array option;
      (** per-disk observability report when the run was observed *)
}

val run :
  ctx ->
  ?knobs:Dp_disksim.Knobs.t ->
  ?obs:bool ->
  ?shards:int ->
  procs:int ->
  Version.t ->
  run
(** For the paper's versions: {!Dp_pipeline.Pipeline.simulate} of the
    version's mode under its policy — the proactive (restructured)
    versions carry a compiler hint stream ({!Dp_trace.Hint}) emitted
    from the restructured trace, which the engine executes in place of
    its omniscient gap planner.  For the [Oracle_*] rows: generate the
    unmodified-code trace and replace the energy of its no-PM reference
    run with the offline-optimal bound ({!Dp_oracle.Oracle}); the
    [result]'s per-disk stats remain those of the reference run.  The
    [summary] of every row and the oracle rows' reference run are
    pipeline stages ({!Dp_pipeline.Pipeline.summary},
    {!Dp_pipeline.Pipeline.reference}), so rows replaying the same
    trace share them.  A Base row with no [knobs] and no [obs] is that
    reference run too: its [result] is the reference's No-PM run of the
    unmodified-code trace, the run it would otherwise repeat, so a
    clean matrix replays each such trace under No-PM once.  A Base row
    with [knobs] or [obs] makes its own engine run.

    [knobs] are the engine's reliability knobs ({!Dp_disksim.Knobs}).
    The oracle rows ignore them: they are an idealized offline bound,
    so perturbing them would conflate the bound with injector noise.

    [shards] caps the engine's intra-run domain fan-out (per-segment
    shard groups, byte-identical to serial — see
    {!Dp_disksim.Engine.simulate}); it composes with the harness's
    [jobs] row-level fan-out.  The oracle rows ignore it.

    [obs] (default false) streams the run into a
    {!Dp_obs.Report.recorder}, which folds every event into the run's
    per-disk {!Dp_obs.Report.disk_report}s (idle-gap / response-time /
    standby-residency histograms).  The engine's numeric results are
    unaffected, and the observed Base row makes its own run.  Oracle
    rows run no engine of their own (their reference run is shared and
    unobserved), so their [obs] is [None] regardless.
    @raise Invalid_argument for a [T_*_m] version with [procs = 1] (the
    layout-aware scheme is only meaningful with several processors). *)

type reliability = {
  spin_downs : int;
  wear : float;
      (** worst per-disk fraction of the rated start-stop budget
          ({!Dp_disksim.Disk_model.rated_start_stop_cycles}) consumed *)
  spin_up_retries : int;
  media_retries : int;
  latency_spikes : int;
  degraded_ms : float;
}

val reliability : ?model:Dp_disksim.Disk_model.t -> run -> reliability
(** Wear/retry/degraded-time aggregates across the run's disks (counts
    summed, wear the worst disk). *)

val normalized_energy : base:run -> run -> float
(** Energy relative to the Base run of the same processor count. *)

val perf_degradation : base:run -> run -> float
(** Increase in disk I/O time over Base (paper Fig. 10), as a fraction. *)
