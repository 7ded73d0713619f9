(** Per-disk power-state timelines, a view over the engine's
    {!Dp_obs.Event.Power} spans, with an ASCII Gantt renderer — makes
    the clustering visible: under the restructured schedule each disk's
    busy segments coalesce and the others' idle/standby runs stretch.

    The engine keeps no timeline of its own.  Every charge it makes is
    one [Power] span on the run's sink, so a {!recorder} passed as
    [Engine.replay ~obs] sees each disk's whole timeline.  That the
    spans add up to the run's stats is checked by [Engine.recorder],
    which stores no span; this view is for the chart. *)

type segment = {
  start_ms : float;
  stop_ms : float;
  state : Dp_obs.Event.power_state;
  energy_j : float;
      (** energy charged to this span.  Lump charges with no duration (a
          speed change overlapped with servicing) appear as zero-length
          segments. *)
}

type t = segment list array
(** One (chronologically ordered) segment list per disk. *)

val recorder : disks:int -> unit -> Dp_obs.Sink.t * (unit -> t)
(** The sink to pass as [Engine.replay ~obs] and the finisher that
    returns what it recorded.  Each [Power] span becomes one segment,
    except a span with neither duration nor energy.  To record a
    timeline alongside other recorders, {!Dp_obs.Sink.tee} them.
    @raise Invalid_argument when [disks < 1]. *)

val char_of_state : Disk_model.t -> Dp_obs.Event.power_state -> char
(** ['#'] active, ['~'] transition, ['_'] standby, and for idle a digit:
    the RPM level index (['4'] = full speed for the Ultrastar's five
    levels, ['0'] = slowest). *)

val render : ?width:int -> model:Disk_model.t -> until_ms:float -> t -> string
(** An ASCII chart, one row per disk, [width] characters across the
    [0, until_ms] span (default 96).  Each cell shows the state occupying
    the largest share of its time slot. *)

val state_time_ms : t -> disk:int -> Dp_obs.Event.power_state -> float
(** Total time a disk spent in a state (idle states match on any RPM
    when queried with [Idle (-1)]). *)
