(** The deterministic fault injector.

    One injector carries an independent {!Dp_util.Splitmix} stream per
    disk {e and} per fault class, so the number of draws one class makes
    never shifts another class's schedule, and two runs with the same
    {!Fault_model.t} see identical faults.  All queries are cheap; the
    only mutable cross-query state is the per-disk stuck-RPM lock
    window. *)

type t

val make : Fault_model.t -> disks:int -> t

val spin_up_failures : t -> disk:int -> max_failures:int -> int
(** Number of spin-up attempts that fail (each costs a full spin-up)
    before the one that succeeds: geometric in the fault rate, bounded
    by [max_failures].  0 when the class is disabled. *)

val media_retries : t -> disk:int -> max_retries:int -> int
(** Number of times one request must be re-serviced: geometric in the
    fault rate, bounded by [max_retries].  0 when the class is
    disabled. *)

val latency_spike_ms : t -> disk:int -> float
(** A servo-recalibration stall for the request being served: the
    configured spike length with probability [rate], else 0. *)

val decay_defect : t -> disk:int -> surface:int -> int option
(** One media-decay draw for a service on [disk]: with probability
    [rate], the block index (uniform in [0, surface)) where a new bad
    sector grows; [None] otherwise, or when the class is disabled.  The
    draw comes from the decay class's own stream, so arming decay never
    shifts another class's schedule — and at rate 0 no draw is consumed
    at all, keeping the run byte-identical to a clean one.
    @raise Invalid_argument when [surface < 1]. *)

val rpm_locked : t -> disk:int -> now_ms:float -> bool
(** Consult-and-maybe-trigger, called when a policy {e attempts} a speed
    transition: [true] when the disk is inside a stuck window, or when a
    fresh stuck fault fires now (which opens a window of the configured
    length).  The transition must then be skipped. *)

val is_locked : t -> disk:int -> now_ms:float -> bool
(** Pure read of the lock state — never triggers a fault.  Used for
    degraded-time accounting. *)
