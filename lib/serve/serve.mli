(** The served-array experiment: N tenants, one disk array, offline
    hints vs online adaptation vs the oracle bound.

    One {!run} builds the tenant population and the merged trace once
    (serially — the trace is a pure function of the seed) and then fans
    the report rows out over a {!Dp_util.Domain_pool}:

    - [base]: no power management — the energy reference.
    - [offline-tpm] / [offline-drpm]: the paper's compiler-directed
      proactive policies, driven by hints each tenant's compiler planned
      on its {e own} stream ({!Dp_oracle.Oracle.hints} [~by_proc:true]
      over the merged trace, one plan per tenant, merged by nominal
      time).  Under multiplexing the planned
      gaps are sliced up by other tenants' arrivals, so directives
      degrade gracefully ([tpm:hint-infeasible] and shallow dips) — this
      row measures exactly how much of the offline plan survives
      interleaving.
    - [online]: the epoch-based adaptive policy
      ({!Dp_disksim.Policy.Adaptive}) learning per-disk thresholds from
      the merged stream it actually observes.
    - [oracle]: {!Dp_oracle.Oracle.bound} over the merged trace —
      the offline-optimal energy floor, unchanged by who generated the
      requests.  An analytic bound, not a run: it carries no per-tenant
      accounting.

    Rows are independent simulations of the same immutable trace, so
    [jobs = 1] and [jobs = 4] produce byte-identical reports. *)

type selection =
  | All
  | Offline  (** base + the two offline-hint rows *)
  | Online  (** base + the online row *)
  | Oracle_only

val selection_of_name : string -> selection option
(** ["all"], ["offline"], ["online"], ["oracle"]. *)

val selection_name : selection -> string

type config = {
  tenants : int;
  seed : int;
  disks : int;  (** array size (default 8) *)
  jitter_ms : float;
      (** tenant start offsets are uniform in [\[0, jitter_ms)]
          (default 30 000) *)
  jobs : int;  (** domain-pool width for the row fan-out *)
  selection : selection;
  knobs : Dp_disksim.Knobs.t;
      (** reliability knobs of the simulated rows (the oracle bound
          stays fault-free — it is an analytic floor); a deadline arms
          per-request SLO accounting *)
  obs : bool;
      (** build a per-disk {!Dp_obs.Report} for every simulated row
          (incrementally — nothing is retained beyond the report) *)
  live : bool;
      (** render {!Dp_obs.Tty.Plain} live frames per simulated row into
          {!row.frames}.  Frames are keyed on simulated time, and rows
          carry their own buffers, so output is byte-identical across
          [jobs] settings. *)
}

val config :
  ?disks:int ->
  ?jitter_ms:float ->
  ?jobs:int ->
  ?selection:selection ->
  ?knobs:Dp_disksim.Knobs.t ->
  ?obs:bool ->
  ?live:bool ->
  tenants:int ->
  seed:int ->
  unit ->
  config
(** [knobs] defaults to {!Dp_disksim.Knobs.none}.  Media decay at a
    rate above 0 with no deadline serves under a 500 ms SLO deadline, so
    a decay run reports availability next to energy.
    @raise Invalid_argument when [tenants < 1], [disks < 1], [jobs < 1],
    [jitter_ms] is negative or NaN, or {!Dp_disksim.Knobs.check}
    refuses [knobs]. *)

type row = {
  label : string;  (** [base] | [offline-tpm] | [offline-drpm] | [online] | [oracle] *)
  detail : string;  (** policy description, or the bound's *)
  energy_j : float;
  makespan_ms : float;
  summary : Account.summary option;  (** [None] for the oracle bound *)
  obs : Dp_obs.Report.disk_report array option;
      (** per-disk report when {!config.obs}; [None] for the bound *)
  frames : string option;
      (** the row's rendered live frames when {!config.live}; [None]
          for the bound *)
}

type report = {
  config : config;
  requests : int;  (** merged trace length *)
  kinds : string array;  (** per-tenant workload kind ({!Tenant.kind_name}) *)
  rows : row list;
}

val run : config -> report
(** Builds the population ({!Tenant.population}) as column streams,
    merges it into one trace ({!Mux.trace}) and computes the selected
    rows from those columns alone: the per-tenant hints, the simulated
    rows and the bound.  No request record is built and nothing is
    sorted that is already in order.  It reads and writes no stage
    store: an app window is built from its program's first iterations,
    with no dependence graph and no whole trace, which costs less than
    fetching a stored trace would. *)

val pp_report : Format.formatter -> report -> unit
(** The human table: one line per row (energy, makespan, pooled
    response percentiles, fairness, attribution check). *)
