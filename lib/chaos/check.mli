(** The differential oracle: run one scenario under paired
    configurations that must agree — serial vs sharded, jobs 1 vs N,
    text vs binary trace, cold vs warm cache, a rate-0 fault window vs
    the clean engine — and check structural invariants on every run
    (energy conservation, per-state charge accounting, monotone event
    time per disk, SLO/availability consistency), plus the compile-side
    legality of the streams the scenario's trace was generated from. *)

type sabotage = Energy_skew
(** Test-only invariant breakers, injected from the CLI so the
    shrinker's catch-and-minimize path can be exercised end to end.
    [Energy_skew] perturbs the observed power-span sum of disk 0 so the
    energy-conservation check must fire. *)

val sabotage_name : sabotage -> string
val sabotage_of_name : string -> sabotage option
val all_sabotages : sabotage list

type violation = { check : string; detail : string }
(** [check] is a stable slug ([pair:shards-4],
    [energy-conservation:base], ...); [detail] is the human line, with
    the first divergence excerpt for pair checks. *)

type outcome = { violations : violation list; runs : int; requests : int }

val result_divergence :
  Dp_disksim.Engine.result -> Dp_disksim.Engine.result -> string option
(** The pair comparator: [None] when the two results are bit for bit
    equal (their marshalled bytes match, so [0.0] and [-0.0] differ),
    else where their precise JSON renderings first diverge. *)

val compile_violations :
  Dp_dependence.Concrete.graph -> Dp_trace.Generate.segments array -> violation list
(** The compile-side oracle over a mode's streams ({!Dp_pipeline.Pipeline.streams}):
    [compile:permutation] unless the segments together list every
    instance exactly once, else [compile:legality] unless every segment
    runs each dependence between two of its own instances source first
    ({!Dp_dependence.Concrete.check_parts}).  At most one finding. *)

val run : ?sabotage:sabotage -> Scenario.t -> outcome
(** Execute every pair and every invariant for one scenario.  [runs]
    counts engine executions, [requests] the scenario's trace length.
    The compile oracle runs on the base context after its trace is
    built, so it costs memo hits only: no stage builds, no engine runs. *)

val run_trace : Scenario.t -> Dp_trace.Trace.t
(** The scenario's access trace (for the reproducer directory). *)

val run_direct : Scenario.t -> unit
(** The same paired configurations with no oracle: no invariants, no
    artifacts, no observability.  The bench baseline that bounds the
    oracle's overhead. *)
