(** Physical disk model: the IBM Ultrastar 36Z15 figures of Table 1, plus
    the DRPM multi-speed extension of Gurumurthi et al. (ISCA'03), whose
    power at a rotation speed is estimated quadratically in RPM (the
    paper: "As to the power model of DRPM disks, we obtained these values
    using quadratic estimation described in [13]"). *)

type t = {
  name : string;
  capacity_gb : float;
  cache_mb : int;
  rpm_max : int;
  rpm_min : int;
  rpm_step : int;
  seek_ms : float;  (** average seek *)
  rotation_ms : float;  (** average rotational latency at [rpm_max] *)
  transfer_mb_s : float;  (** internal transfer rate at [rpm_max] *)
  power_active_w : float;
  power_idle_w : float;
  power_standby_w : float;
  spin_down_j : float;
  spin_down_s : float;
  spin_up_j : float;
  spin_up_s : float;
  tpm_breakeven_s : float;
  rated_start_stop_cycles : int;
      (** the manufacturer's start-stop budget: how many spin-down/up
          cycles the drive is rated for over its life (Ultrastar class:
          50,000).  Aggressive TPM cycling spends this budget — the wear
          column of the experiments matrix charges against it. *)
  spare_blocks : int;
      (** spare-pool size: how many grown bad sectors the drive can
          remap before the pool is exhausted and the slot must be
          retired (see {!Dp_repair.Repair}) *)
  remap_penalty_ms : float;
      (** detour cost of accessing an already-remapped block: the head
          diverts to the spare area and back (about one average seek
          plus one rotational latency — the arXiv 1908.01167 shape) *)
}

val ultrastar_36z15 : t
(** Table 1 defaults. *)

val rpm_levels : t -> int list
(** Ascending RPM levels, [rpm_min] to [rpm_max] by [rpm_step]
    (3,000 .. 15,000 by 3,000 for the Ultrastar). *)

val level_count : t -> int
val rpm_of_level : t -> int -> int
(** Level 0 is [rpm_min]; the top level is [rpm_max].
    @raise Invalid_argument out of range. *)

val top_level : t -> int

val seek_class : int -> int
(** The seek class of a byte distance from the previous request's end:
    0 for a sequential access, 1 for a short hop (within 32 MB — a few
    cylinders), 2 beyond.  A service time depends on the distance only
    through its class. *)

val seek_ms_of_distance : t -> int -> float
(** Seek time by {!seek_class}: 0 for a sequential access, 40% of the
    average seek for a short hop, the full average seek beyond. *)

val service_ms : ?seek_distance:int -> t -> rpm:int -> bytes:int -> float
(** Service time of one request at a rotation speed: rotational latency
    and transfer time scale inversely with RPM, plus
    [seek_ms_of_distance] for the given distance (default: a full
    average seek). *)

val remap_ms : t -> rpm:int -> block_bytes:int -> float
(** Cost of remapping one grown bad sector on first touch: a full seek
    to the spare area, the rotational wait and the relocated block's
    write (scaled by the current RPM), plus the seek back. *)

val idle_power_w : t -> rpm:int -> float
(** Quadratic interpolation between standby power (RPM -> 0) and the
    full-speed idle power. *)

val active_power_w : t -> rpm:int -> float
(** Idle power at that speed plus the (quadratically scaled)
    active-minus-idle overhead. *)

val transition_s : t -> rpm_from:int -> rpm_to:int -> float
(** Time of a speed change, scaled linearly from the full spin-up (going
    up) or spin-down (going down) figures by the RPM distance.  Used for
    TPM's full stop/start cycles. *)

val drpm_level_transition_s : t -> float
(** Duration of a one-level dynamic speed change (0.4 s): DRPM drives are
    engineered for low-overhead transitions between adjacent RPM levels
    (Gurumurthi et al.), far quicker than a full spin-up from rest. *)

val drpm_transition_j : t -> rpm_from:int -> rpm_to:int -> float
(** Energy of a dynamic speed change: the transition time at the active
    power of the faster of the two levels, per level crossed. *)

val pp : Format.formatter -> t -> unit
