(** Disk power-management policies (Section 4): none, traditional
    spin-down (TPM), and dynamic speed setting (DRPM). *)

type tpm_config = {
  idle_threshold_s : float;
      (** continuous idleness before spinning down; defaults to the
          disk's break-even time (Table 1: 15.2 s) *)
  proactive : bool;
      (** compiler-directed mode (Son et al., IPDPS'05 — the machinery
          the paper's restructured versions run on): the compiler knows
          the disk access schedule, so it spins a disk down at the start
          of an idle period it predicts to be long enough, and issues the
          spin-up early so the disk is back at full speed exactly when
          the next request arrives — no reactive spin-up stall. *)
}

type drpm_config = {
  window_size : int;  (** requests per response-time window (Table 1: 100) *)
  downshift_idle_ms : float;
      (** continuous idleness consumed per one-level speed decrease *)
  tolerance : float;
      (** upshift one level when a window's average response time exceeds
          [tolerance] x its full-speed service average *)
  proactive : bool;
      (** compiler-directed speed setting: with the schedule known, a
          gap's speed trajectory is planned so the disk drops straight to
          the deepest level whose round trip fits and is back at full
          speed exactly when the next request arrives — every request is
          then served at full speed. *)
  min_rpm : int option;
      (** floor below which the controller never drops; [Some 9000] with
          the Ultrastar's levels gives the two-speed architecture of
          Carrera et al. (ICS'03) that the paper cites as a DRPM
          alternative.  [None]: the drive's minimum. *)
}

type t =
  | No_pm
  | Tpm of tpm_config
  | Drpm of drpm_config
  | Adaptive of Dp_online.Online.config
      (** epoch-based online adaptation (see {!Dp_online.Online}): the
          engine learns per-disk inter-arrival statistics as the run
          unfolds and picks spin-down thresholds / RPM dips from the
          estimate — no compiler schedule, no hints.  The policy for
          merged multi-tenant streams whose interleaving nobody
          planned. *)

val default_tpm : t
val default_drpm : t
val default_adaptive : t

val tpm : ?idle_threshold_s:float -> ?proactive:bool -> unit -> t
(** @raise Invalid_argument on a negative or NaN [idle_threshold_s]. *)

val adaptive : ?config:Dp_online.Online.config -> unit -> t

val drpm :
  ?window_size:int ->
  ?downshift_idle_ms:float ->
  ?tolerance:float ->
  ?proactive:bool ->
  ?min_rpm:int ->
  unit ->
  t
(** @raise Invalid_argument on a [window_size] below 1 or a negative or
    NaN [downshift_idle_ms]. *)

val names : string list
(** The policy names {!of_name} accepts, in this order:
    [none | tpm | tpm-proactive | drpm | drpm-proactive | online].  The
    chaos harness draws a scenario's policy by index into this list, so
    reordering it changes every chaos scenario. *)

val of_name : string -> t option
(** The default-tuned policy of a {!names} member; ["base"] is an alias
    of ["none"]. *)

val name : t -> string

val describe : t -> string
(** [name] plus the configuration knobs, e.g.
    ["DRPM proactive (window 100, downshift 1000 ms, tolerance 1.15)"] —
    used to head observability reports. *)

(** {1 Degraded-mode behaviour}

    How a controller responds when the fault injector (see
    {!Dp_faults.Injector}) perturbs an operation: failed operations are
    retried a bounded number of times with bounded exponential backoff,
    and a proactive policy whose directive is invalidated by a fault
    degrades to its reactive twin for the affected gap instead of
    stalling. *)

type retry_config = {
  max_attempts : int;
      (** total tries of a faulted operation (first attempt included);
          spin-ups and media reads are abandoned to the next attempt
          after this many, so a simulation always terminates *)
  backoff_base_ms : float;  (** backoff before the first media retry *)
  backoff_cap_ms : float;  (** bound on the exponential backoff *)
}

val default_retry : retry_config
val retry :
  ?max_attempts:int -> ?backoff_base_ms:float -> ?backoff_cap_ms:float -> unit -> retry_config

val backoff_ms : retry_config -> attempt:int -> float
(** Backoff before retry [attempt] (1-based): [backoff_base_ms]
    doubling per attempt, capped at [backoff_cap_ms]. *)

val reactive_fallback : t -> t
(** The same policy with [proactive] cleared: what a compiler-directed
    controller falls back to for a gap whose directive a fault
    invalidated (idle, or serve slow and recover reactively).  The
    engine applies it to a proactive DRPM request served inside a
    stuck-RPM window; the directives addressed to that gap are consumed
    with it, so a later gap never executes them. *)
