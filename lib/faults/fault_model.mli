(** Configuration of the deterministic fault injector.

    The paper's evaluation assumes a fault-free array: every spin-up
    succeeds, every RPM transition completes, every request is served on
    the first attempt.  Real disks misbehave in exactly the places the
    power policies stress — start-stop cycling and speed transitions —
    so the simulator can perturb a run with five fault classes, each
    driven by its own seeded random stream (see {!Injector}):

    - {b spin-up failures}: a standby disk needs extra attempts, each
      costing a full spin-up in time and energy, before reaching speed;
    - {b transient media errors}: a request is re-serviced after a
      bounded exponential backoff;
    - {b latency spikes}: a servo recalibration stalls the head before
      the transfer;
    - {b stuck RPM}: a multi-speed disk refuses speed transitions for a
      window and serves degraded at its current level;
    - {b media decay}: {e persistent} damage — each service can grow a
      bad sector on the disk's surface that stays bad until remapped to
      a spare (see {!Dp_repair.Repair}); unlike the transient classes,
      decay accumulates state across requests. *)

type class_ = Spin_up_failure | Media_error | Latency_spike | Stuck_rpm | Media_decay

val all_classes : class_ list
val class_name : class_ -> string

type t = {
  seed : int;  (** root of every injector stream *)
  rate : float;  (** per-event fault probability in [0, 1] *)
  classes : class_ list;  (** enabled fault classes *)
  spike_ms : float;  (** servo recalibration stall length *)
  stuck_window_ms : float;  (** how long a stuck-RPM fault pins the speed *)
}

val make :
  ?classes:class_ list ->
  ?spike_ms:float ->
  ?stuck_window_ms:float ->
  seed:int ->
  rate:float ->
  unit ->
  t
(** Defaults: all classes, 120 ms spikes, 30 s stuck windows.
    @raise Invalid_argument when {!check_rate} rejects [rate]. *)

val check_rate : float -> (unit, string) result
(** The one fault-rate rule: a rate must lie within [\[0, 1\]], so NaN
    is refused.  The error echoes the value. *)

val of_spec : string -> (t, string) result
(** Parse a [seed:rate:classes] CLI spec, e.g. ["42:0.01:all"] or
    ["7:0.05:sm"].  Classes are a subset of the letters [s] (spin-up),
    [m] (media), [l] (latency spike), [r] (stuck RPM), [d] (media
    decay), or the word [all].  A duplicated class letter, a negative
    seed or a rate {!check_rate} refuses is rejected; the error names
    the offending field. *)

val to_spec : t -> string
(** Round-trips through {!of_spec} (spike/window lengths keep their
    defaults). *)

val pp : Format.formatter -> t -> unit
