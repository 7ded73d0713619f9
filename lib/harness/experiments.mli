module App = Dp_workloads.App

(** The paper's evaluation, end to end: every table and figure of
    Section 7 as a reproducible report. *)

type matrix = (App.t * (Version.t * Runner.run) list) list
(** One row per application: the runs of every requested version. *)

val build_matrix :
  ?apps:App.t list ->
  ?cache:Dp_cachefs.Cachefs.t ->
  ?knobs:Dp_disksim.Knobs.t ->
  ?obs:bool ->
  ?jobs:int ->
  ?shards:int ->
  procs:int ->
  versions:Version.t list ->
  unit ->
  matrix
(** Runs the full pipeline for every (app, version) pair.  Defaults to
    the six Table-2 applications.  [cache] backs every per-app context
    with a persistent stage store ({!Runner.context}) so a warm
    invocation skips straight to the simulations.  [knobs] apply to
    every simulated run (oracle rows ignore them — see {!Runner.run}).
    [obs] attaches per-run observability reports (see {!Runner.run});
    the JSON rendering then carries the histograms.  [jobs] (default 1)
    fans the (app, version) rows out over that many domains
    ({!Dp_util.Domain_pool}); results are returned in the same
    deterministic order regardless of [jobs] — the matrix is
    byte-identical to a serial build.  [shards] additionally fans each
    simulation across domains {e inside} the engine (per-segment shard
    groups, also byte-identical — see
    {!Dp_disksim.Engine.simulate}). *)

val table1 : Format.formatter -> unit
(** Default simulation parameters (the Table 1 reproduction). *)

val table2 : ?matrix:matrix -> Format.formatter -> unit
(** Application characteristics from the Base runs: modeled data size,
    request count, Base energy and I/O time, with the paper's values for
    side-by-side comparison.  Reuses [matrix] when given (it must contain
    Base runs at 1 processor); otherwise computes one. *)

val fig_energy : matrix -> Format.formatter -> unit
(** Normalized energy per app and version (Figs. 9a / 9b depending on the
    matrix's processor count), plus the cross-application average and the
    implied savings. *)

val fig_perf : matrix -> Format.formatter -> unit
(** Performance degradation (increase in disk I/O time) per app and
    version (Figs. 10a / 10b). *)

(** {1 Fault sweeps} *)

type sweep_point = { rate : float; runs : (Version.t * Runner.run) list }

type sweep = { app : App.t; procs : int; seed : int; points : sweep_point list }
(** One application re-simulated across a fault-rate ramp; every point
    reuses the same seed, so points differ only by rate. *)

val fault_sweep :
  ?seed:int ->
  ?rates:float list ->
  ?cache:Dp_cachefs.Cachefs.t ->
  ?classes:Dp_faults.Fault_model.class_ list ->
  ?obs:bool ->
  ?jobs:int ->
  ?shards:int ->
  procs:int ->
  versions:Version.t list ->
  App.t ->
  sweep
(** Defaults: seed 42, rates [0, 0.001, 0.01, 0.05, 0.1] (each must pass
    {!Dp_faults.Fault_model.check_rate}), all fault classes.  [cache],
    [obs], [jobs] and [shards] as in {!build_matrix} — the (rate,
    version) points fan out over the domain pool with deterministic
    ordering. *)

val fig_sweep : sweep -> Format.formatter -> unit
(** Energy and degraded time per version at each rate of the ramp. *)

val average_energy_saving : matrix -> Version.t -> float
(** 1 - (mean normalized energy) for one version across the matrix. *)

val average_perf_degradation : matrix -> Version.t -> float
