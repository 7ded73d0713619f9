(** Chrome [trace_event] export.

    Renders a recorded event stream as a JSON object loadable in
    [about:tracing] or {{:https://ui.perfetto.dev}Perfetto}: one track
    (thread) per disk whose complete-events are the power-state spans
    (ACTIVE / IDLE@rpm / STANDBY / TRANSITION), with hint executions,
    fault perturbations and policy decisions as instant markers on the
    same track.  Timestamps are microseconds, as the format requires,
    and every number is an exact ([%.17g]) float. *)

val trace_json : ?until_ms:float -> Event.t list -> string
(** [until_ms] clips spans to the run's makespan (a trailing spin-down
    may overshoot it); spans of zero clipped length are dropped.  The
    remaining spans of each track are contiguous and sum to the
    makespan. *)

val write : ?until_ms:float -> string -> Event.t list -> unit
(** [write path events] saves {!trace_json} to [path]. *)
