(** Incremental per-disk rolling state over the typed event stream —
    the data model of the operator console.

    A {!t} attaches to a running simulation as a {!Sink.stream}
    (see {!sink}) and folds every event into fixed per-disk state:

    - the {b current power state} and its residency clock (how long the
      disk has been in it, in simulated time);
    - an {b EWMA arrival rate} over inter-arrival times;
    - {b response percentiles} over a sliding window of the most recent
      responses;
    - {b energy so far} and request/fault/repair/deadline counters;
    - a {b power-state track}: one byte per simulated-time epoch
      recording the state the disk spent most of that epoch in — the
      sparkline the TTY renderer draws.

    Every update is O(1) (amortized over epochs for power spans) and
    allocation-free, so a live console's memory does not grow with the
    run.
    When no console is attached the engine keeps its null sink and pays
    nothing — the aggregator mirrors the null-sink contract by simply
    not existing on the hot path.

    All clocks are {e simulated} time taken from event timestamps —
    never the wall clock — so the fold (and every frame rendered from
    it) is a pure function of the event stream: byte-identical across
    [--jobs] settings, machines and replays. *)

type disk_live = {
  disk : int;
  mutable state : Event.power_state;  (** current power state *)
  mutable state_since_ms : float;  (** when the current state began *)
  mutable now_ms : float;  (** the disk's own time frontier *)
  mutable energy_j : float;
  mutable requests : int;
  mutable faults : int;
  mutable repairs : int;
  mutable deadline_misses : int;
  mutable ewma_interarrival_ms : float;  (** 0 until two arrivals seen *)
  mutable last_arrival_ms : float;
  recent : float array;  (** sliding window of the last responses *)
  mutable recent_len : int;
  mutable recent_next : int;
}

type t

val create : ?epoch_ms:float -> ?window:int -> ?track:int -> disks:int -> unit -> t
(** [epoch_ms] (default 1000) is the simulated-time granularity of the
    power-state track and of frame emission; [window] (default 256)
    the sliding response window; [track] (default 64) the number of
    track epochs retained per disk.
    @raise Invalid_argument when [disks < 1], [epoch_ms <= 0],
    [window < 1] or [track < 1]. *)

val feed : t -> Event.t -> unit
(** Fold one event.  Events must arrive in emission order (per-disk
    chronological), as the engine produces them. *)

val sink : t -> Sink.t
(** [Sink.stream (feed t)] — what to pass as [Engine.simulate ~obs]. *)

val disks : t -> disk_live array
(** The rolling state, indexed by disk.  Read-only by convention. *)

val now_ms : t -> float
(** The global simulated-time frontier (max event time seen). *)

val events_seen : t -> int

val epoch_ms : t -> float

val epochs_completed : t -> int
(** Simulated-time epochs fully elapsed: [floor (now_ms / epoch_ms)].
    The TTY driver emits a frame whenever this advances. *)

val recent_percentile : t -> disk:int -> float -> float
(** Exact nearest-rank percentile over the sliding window (0 when the
    disk has served nothing yet).  O(window log window): for display,
    not for the per-event path. *)

val arrival_rate_hz : t -> disk:int -> float
(** Requests per second implied by the EWMA inter-arrival time; 0
    until the disk has seen two arrivals. *)

val residency_ms : t -> disk:int -> float
(** How long the disk has been in its current power state. *)

val track_chars : t -> disk:int -> Bytes.t
(** The power-state track, oldest epoch first, one byte per epoch:
    ['A'] active, ['i'] idle, ['.'] standby, ['~'] transition, ['?']
    before any span covered the epoch.  A fresh Bytes per call — for
    rendering, not the hot path. *)
