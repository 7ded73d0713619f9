module Request = Dp_trace.Request
module Trace = Dp_trace.Trace

(** Trace-driven multi-disk simulation engine.

    Requests are served per I/O node in FIFO issue order.  The replay is
    closed-loop: a processor issues each request [think_ms] after its
    previous request completes, so a stall on one request (a reactive
    spin-up, queueing) delays every later request of that processor by
    the same amount.  A trace's nominal [arrival_ms] only orders each
    processor's stream and places the hints.  One gap rule decides a
    node's power trajectory (stay idle, spin down, or shift rotation
    speed) over each of its idle windows: interior when a request
    arrives at the window's end, terminal from the node's last service
    to the global makespan.  Energy is integrated over the full timeline
    of every node up to that makespan, so savings on one node are never
    hidden by activity on another.

    A run can additionally carry a seeded fault injector (see
    {!Dp_faults}): spin-up failures, transient media errors, latency
    spikes and stuck-RPM windows then perturb the timeline, and the
    policies degrade gracefully — bounded retries with exponential
    backoff, proactive directives falling back to their reactive twins —
    while every joule and millisecond stays accounted. *)

type disk_stats = {
  disk : int;
  requests : int;
  energy_j : float;
  busy_ms : float;  (** time servicing requests *)
  idle_ms : float;  (** powered-up idle (at whatever speed) *)
  standby_ms : float;
  transition_ms : float;  (** spin-up/down / speed-change time *)
  spin_downs : int;
  spin_ups : int;
  speed_changes : int;
  spin_up_retries : int;  (** failed spin-up attempts (injected faults) *)
  media_retries : int;  (** request re-services after media errors *)
  latency_spikes : int;  (** servo recalibration stalls *)
  degraded_ms : float;
      (** time attributable to injected faults: failed spin-up attempts,
          media-retry backoff and re-service, spike stalls, service at a
          fault-pinned (stuck-RPM) reduced speed, and every
          repair-domain charge (remap writes, detour penalties,
          reconstruction reads, failover reads, rebuild slices) *)
  remaps : int;  (** bad blocks remapped to spares (foreground + scrub) *)
  remap_penalty_hits : int;  (** accesses that paid the remapped-block detour *)
  scrub_chunks : int;  (** background verification chunks read *)
  scrub_found : int;  (** bad blocks found (and remapped) by the scrubber *)
  reconstructions : int;
      (** reads this disk served on behalf of its failed mirror *)
  rebuild_chunks : int;  (** rebuild slices copied onto the hot spare *)
  failovers : int;  (** deadline-abandoned requests failed over to the mirror *)
  disk_failures : int;  (** times this slot was retired onto a hot spare *)
  rebuilds_completed : int;
  response_ms_total : float;
  response_ms_max : float;
  last_completion_ms : float;
}

type result = {
  policy : string;
  per_disk : disk_stats array;
  energy_j : float;
  io_time_ms : float;  (** sum of request response times, the paper's
                           "disk I/O time" performance metric *)
  makespan_ms : float;
}

val replay :
  ?model:Disk_model.t ->
  ?obs:Dp_obs.Sink.t ->
  ?hints:Dp_trace.Hint.t list ->
  ?knobs:Knobs.t ->
  ?shards:int ->
  disks:int ->
  Policy.t ->
  Trace.t ->
  result
(** Simulate a trace on [disks] I/O nodes under a policy.  The trace's
    recorded counts ({!Trace.t}) size the run and validate it: a request
    on a disk outside [0, disks), or an [arrival_ms] or [think_ms] that
    is not finite, raises [Invalid_argument] naming the first such
    request's field; so do hints on a disk outside that range or with a
    non-finite time or pre-spin-up lead.  A trace holds no negative id.

    Each processor's queue of a segment is an index range of one array
    of trace rows: a stable counting sort of the rows on (segment,
    processor) fills it once per run, so the queues lie back to back,
    each in arrival order, a cursor per processor walks its range, and
    the issue loop reads the trace's own columns at those rows.  The
    run allocates no per-request record.  Segment ids may
    skip values: a segment no request names is an empty barrier, a
    no-op.

    Every power and service figure a request needs is read from the
    run's {!prices}, tabled once from the model after {!Knobs.model},
    and the issue loop keeps its times unboxed: a fault-free run with
    the null sink allocates 2 minor words a request under [No_pm],
    reactive TPM and reactive DRPM (the issue heap's key, a float
    passed to {!Dp_util.Minheap}), and its results are bit-identical to
    pricing each request with {!Disk_model}'s functions.  Faults, the
    repair domain, the online policy, hints and a live sink keep their
    behaviour and event order and may allocate more.

    Requests issue in (issue time, processor) order: the processor due
    earliest issues next, and among processors due at the same instant
    the lowest index goes first.  The waiting processors sit in a heap
    on that key, so picking the next request costs O(log procs).

    [shards] (default 1) is the engine's component split, kept for one
    check: the chaos oracle's shard pairs compare runs split into 2, 4
    and 8 shard groups against the serial run.  No CLI or library layer
    above the engine sets it, and it goes once the benchmark's golden
    chaos counts are next re-recorded without those pairs.  With
    [shards > 1] each segment is split into the connected components of
    its processor–disk interaction graph (requests as edges, closed
    under mirror pairing when the repair domain is armed); components
    share no mutable state, run on up to [shards] domains (never more
    than {!Dp_util.Domain_pool} allows on the host), and rejoin at the
    segment's fork-join barrier.  The result is {e byte-identical} to
    the serial run: per-disk stats and repair digests are reproduced
    exactly, and observability events, the Power spans included, are
    re-merged into the serial emission order (each parallel step's
    events are tagged with its issue instant and processor, the key the
    serial scheduler executes in).  A trace whose segments form a
    single component — every processor touching every disk — runs
    serially whatever [shards] says, and so does a run with the repair
    domain armed and a live [obs] sink (a conservation {!recorder}
    included): a failed slot's rebuild events belong to whichever step
    first covers them, which the merge key cannot attribute across
    groups.

    [obs] (default {!Dp_obs.Sink.null}) receives typed observability
    events as the run unfolds: every power-state span, every request
    service, every consumed compiler hint, every injected-fault
    perturbation and every policy decision.  The sink is the run's only
    record: the engine keeps no timeline, and each charge it makes to a
    disk is exactly one [Power] span carrying the milliseconds added to
    the per-state statistic, so summing spans reproduces {!disk_stats}
    bit for bit and the conservation {!recorder} sees each disk's whole
    timeline.  The repair counts of {!disk_stats} are the engine's too:
    {!Dp_repair.Repair} keeps the media state, and the engine counts
    each action it charges.  With the null sink no event is ever constructed, nor the
    state an event would carry, and the results are byte-identical to
    a run without the parameter.

    [hints] is the compiler's directive stream (see {!Dp_trace.Hint}),
    in any order: the validation pass also checks it against
    {!Dp_trace.Hint.compare_at}, and only a stream out of that order is
    stably sorted.  The oracle's emitter hands over a sorted one.
    With a non-empty stream, a [proactive] TPM policy spins a disk down
    exactly when a [Spin_down] directive says its cluster ended and hides
    the spin-up latency per the matching [Pre_spin_up] lead (no directive
    — reactive stall); a [proactive] DRPM policy dips to each gap's
    [Set_rpm] target.  Directives that no longer fit their actual gap
    (closed-loop drift) degrade to plain idling, never to a stall.  With
    an empty stream, proactive policies plan each window from the known
    schedule.  Planned TPM runs the same executor as hinted TPM, on the
    directives the schedule implies: spin down when the window exceeds
    both the idle threshold and a full spin-down/spin-up cycle, with a
    lead of one spin-up, so the disk is back at speed exactly at the
    arrival.  Reactive policies ignore hints entirely.  A proactive DRPM
    request served inside a stuck-RPM window falls back to reactive DRPM
    for its window ({!Policy.reactive_fallback}) and drops that window's
    directives, so the next window executes its own.

    [knobs] (default {!Knobs.none}) are the run's fault window, repair
    domain (armed per {!Knobs.armed_repair}), spare override (applied to
    [model]) and deadline; knobs {!Knobs.check} refuses raise
    [Invalid_argument]. *)

type idle_gaps = {
  len_ms : Float.Array.t;
      (** the lengths of a disk's idle gaps, in time order, in the first
          [count] cells: the column is sized once, before the run, to
          the disk's requests plus one *)
  count : int;
  terminal : bool;
      (** the last gap runs to the makespan after the disk's last
          service: the disk need not return to full speed *)
}
(** One disk's idle gaps: see {!replay_gaps}. *)

val replay_gaps :
  ?model:Disk_model.t ->
  ?obs:Dp_obs.Sink.t ->
  disks:int ->
  Trace.t ->
  result * idle_gaps array
(** [replay ?model ?obs ~disks No_pm trace], the fault-free No-PM run
    the oracle's reference fixes a trace's busy/idle structure with, and
    the lengths of each disk's idle gaps: the complement of its [Active]
    spans within [0, makespan].  Scanning a disk's [Active] spans in
    emission order with a cursor from 0, a span starting more than
    1e-6 ms after the cursor opens a gap of [start -. cursor] ms, and
    the cursor moves to [Float.max cursor stop]; a disk whose cursor
    ends more than 1e-6 ms before the makespan ends with a terminal gap
    of [makespan -. cursor] ms.  The run folds the gaps into a column
    as it charges each busy span, so it builds no event for them and
    boxes nothing per request; [obs] still receives every event of the
    run.  It runs the issue loop of {!replay}. *)

(** {1 Per-run prices}

    The power and service figures a run reads, tabled once per run from
    its model ({!replay} applies {!Knobs.model} first): the idle and
    active watts, slowdown and rotational latency of each speed
    [rpm_max - k * rpm_step] down to [rpm_min] (the speeds a disk
    shifts through from full speed), the seek time of each
    {!Disk_model.seek_class}, and the DRPM level-transition time.  Each
    price repeats {!Disk_model}'s operations in their order on the
    tabled operands, so it is the same float bit for bit; a speed off
    that ladder is priced by {!Disk_model} itself into a spare slot of
    the tables.  A run owns its tables: runs differ in model, and
    several may run at once on separate domains. *)

type prices

val prices : Disk_model.t -> prices

val idle_w : prices -> int -> float
(** [idle_w (prices m) rpm] is [Disk_model.idle_power_w m ~rpm], bit for
    bit, and raises the same [Invalid_argument] on a speed [m] refuses. *)

val active_w : prices -> int -> float
(** Likewise for {!Disk_model.active_power_w}. *)

val service_price : prices -> seek_distance:int -> rpm:int -> bytes:int -> float
(** Likewise for {!Disk_model.service_ms}. *)

val transition_j : prices -> rpm_from:int -> rpm_to:int -> float
(** Likewise for {!Disk_model.drpm_transition_j}. *)

val simulate :
  ?model:Disk_model.t ->
  ?obs:Dp_obs.Sink.t ->
  ?hints:Dp_trace.Hint.t list ->
  ?knobs:Knobs.t ->
  ?shards:int ->
  disks:int ->
  Policy.t ->
  Request.t list ->
  result
(** {!replay} of [Trace.of_list ~caller:"Engine.simulate" reqs]: the
    requests may come in any order, and a negative [proc], [seg] or
    [disk] raises [Invalid_argument] naming the field.  A list adapter
    kept for the benchmark's traced pass until it runs the CLI's own
    entry points. *)

val wear_fraction : Disk_model.t -> disk_stats -> float
(** Start-stop wear consumed by a run: [spin_downs] over the drive's
    {!Disk_model.rated_start_stop_cycles}.  An aggressive spin-down
    policy trading energy for wear shows up here. *)

type totals = {
  spin_downs : int;
  wear : float;
      (** worst per-disk {!wear_fraction}: the share of the rated
          start-stop budget the most-cycled disk consumed *)
  spin_up_retries : int;
  media_retries : int;
  latency_spikes : int;
  degraded_ms : float;
  remaps : int;
  remap_penalty_hits : int;
  scrub_chunks : int;
  scrub_found : int;
  reconstructions : int;
  rebuild_chunks : int;
  failovers : int;
  disk_failures : int;
  rebuilds_completed : int;
}
(** A run's reliability counters across its disks: every count and
    [degraded_ms] summed, [wear] the worst disk's. *)

val totals : ?model:Disk_model.t -> result -> totals
(** Folds [per_disk] once, in disk order ([model] defaults to
    {!Disk_model.ultrastar_36z15}, the model {!wear_fraction} reads).
    The one aggregate behind {!pp_reliability} and the harness's JSON
    and fault-sweep columns. *)

val pp_result : Format.formatter -> result -> unit
(** The summary both CLIs print after a simulation: the policy line
    (energy, disk I/O time and makespan, in seconds) followed by
    {!pp_reliability}. *)

val pp_disk_stats : Format.formatter -> disk_stats -> unit

val pp_reliability : ?model:Disk_model.t -> Format.formatter -> result -> unit
(** The one-line wear/retry/degraded-time summary of a run's
    {!totals}, and a repair line when the repair domain acted. *)

(** {1 The conservation recorder} *)

type finding = {
  identity : string;
      (** ["conservation"], ["energy-conservation"], ["charge-accounting"]
          or ["monotone-time"] *)
  detail : string;  (** the disk, and the two sides that disagree *)
}

val recorder : disks:int -> unit -> Dp_obs.Sink.t * (result -> finding list)
(** The one check that a run's [Power] spans add up to its stats: the
    sink to pass as [replay ~obs] (through {!Dp_obs.Sink.tee} beside
    other recorders) and the finisher to call once with the run's
    result.  It makes one pass over the events, keeps a few floats per
    disk and stores no event.  The finisher returns every broken
    identity, in the order found, each named by its identity:

    - [conservation]: the per-disk energies fold to [energy_j]
      (relative 1e-9); each disk's spans run forward, each starts
      within 1e-6 ms of where the disk's last one stopped, and their
      lengths sum to [busy_ms + idle_ms + standby_ms + transition_ms]
      (relative 1e-6).  A span with neither duration nor energy is
      skipped here;
    - [energy-conservation]: each disk's span energies sum to its
      [energy_j] (relative 1e-9);
    - [charge-accounting]: each disk's span [charge_ms] per power state
      sums to [busy_ms], [idle_ms], [standby_ms] and [transition_ms]
      (relative 1e-9);
    - [monotone-time]: within one disk and one event category (power
      spans, services, hints, faults, decisions, repairs, deadline
      misses) no event is stamped more than 1e-6 ms before an earlier
      one.

    A relative tolerance [eps] holds when [|a - b| <= eps * max 1 |b|].
    @raise Invalid_argument when [disks < 1], or when the finisher gets
    a result of another disk count. *)
