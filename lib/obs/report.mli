(** Per-disk analytics derived from a recorded event stream — the
    paper's idle-time-distribution analysis as a first-class report.

    Folded from a run's event stream as it happens ({!recorder}), or
    from a list of events afterwards ({!of_events}):

    - {b idle gaps}: contiguous non-servicing stretches (idle + standby
      + transition time between two services) — the quantity every
      power-management policy in the paper feeds on;
    - {b response times}: per-request [completion - arrival];
    - {b standby residencies}: lengths of contiguous standby stays —
      how much of the spun-down time actually amortizes a spin-down.

    All three are log-bucket {!Metrics.histogram}s, so the report is
    bounded regardless of trace size. *)

type disk_report = {
  disk : int;
  idle_gap_ms : Metrics.histogram;
  response_ms : Metrics.histogram;
  standby_residency_ms : Metrics.histogram;
  mutable busy_ms : float;
  mutable idle_ms : float;
  mutable standby_ms : float;
  mutable transition_ms : float;
  mutable energy_j : float;
  mutable requests : int;
  mutable hints : int;
  mutable faults : int;
  mutable decisions : int;
  mutable repairs : int;  (** recovery actions (remap/scrub/rebuild/...) *)
  mutable deadline_misses : int;
}

val gap_edges : float array
(** The log-bucket edges of the idle-gap and standby-residency
    histograms (1 ms .. 10⁷ ms, one edge per decade) — shared with
    {!Live} so rolling and post-hoc distributions are comparable
    bucket for bucket. *)

val response_edges : float array
(** The response-time edges (0.1 ms .. 10⁵ ms, two per decade). *)

val recorder : disks:int -> Sink.t * (unit -> disk_report array)
(** A sink to pass as the run's [obs] and a finisher that closes the
    trailing idle/standby runs and returns the reports.  Events must be
    per-disk chronological (as emitted by the engine), and each must
    name a disk in [0, disks) ([Invalid_argument] otherwise).  Call the
    finisher once, after the run.  The recorder folds every event and
    keeps none, so a report covers the whole run at any length. *)

val of_events : disks:int -> Event.t list -> disk_report array
(** {!recorder} fed from a list: the report of recorded events. *)

val pp : Format.formatter -> disk_report array -> unit
(** The [dpsim --obs gaps] report: per-disk totals and the three
    histograms. *)

val to_json : disk_report -> Dp_util.Json.t
(** One disk's totals and its three histograms ([edges], [counts],
    [count], [sum], [max]).  [repairs] and [deadline_misses] appear
    together, and only when either is nonzero.  The one encoding of a
    report: the JSONL artifact and the [obs] blocks of the matrix and
    sweep JSON both render it. *)

val jsonl : disk_report array -> string
(** The gap-histogram JSONL artifact: {!to_json} of each disk in the
    compact layout, one per line. *)
