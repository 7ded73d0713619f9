(** Per-disk analytics derived from a recorded event stream — the
    paper's idle-time-distribution analysis as a first-class report.

    Built from {!Sink.events} of a ring sink after a simulation:

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

val of_events : disks:int -> Event.t list -> disk_report array
(** Events must be per-disk chronological (as emitted by the engine).
    Process-level events that belong to no disk — [Cache] lines, and
    [Fault] lines with disk [-1] (a store's lock-timeout report) — are
    skipped rather than counted against any disk. *)

val builder : disks:int -> (Event.t -> unit) * (unit -> disk_report array)
(** The incremental form of {!of_events}: a feed function to call on
    every event (in emission order) and a finisher that closes the
    trailing idle/standby runs and returns the reports.  Feeding after
    the finisher has run is undefined; call the finisher once.
    [of_events ~disks es] is [let feed, fin = builder ~disks in
    List.iter feed es; fin ()].  This is what lets a {!Sink.Stream}
    consumer (the served-array rows, the live console) produce the
    same gap-histogram artifact a ring sink would, without retaining
    the events. *)

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
