(** Epoch-based online power-management controller.

    The paper's proactive policies know the access schedule at compile
    time.  A multi-tenant server array has no such luxury: the merged
    request stream is shaped by arrival jitter and tenant interleaving
    nobody planned.  This controller learns per-disk idle-threshold and
    rotation-speed decisions from the {e observed} inter-arrival stream
    — the online approach of Behzadnia et al. (arXiv 1703.02591) adapted
    to the TPM/DRPM mechanisms of this reproduction.

    The estimator is deliberately simple and fully deterministic:

    - per disk, an exponentially smoothed estimate of the inter-arrival
      gap (one update per request arrival);
    - decisions are frozen for an {e epoch} of [epoch_requests] arrivals
      per disk, then re-derived from the estimate — the controller never
      flip-flops inside an epoch;
    - the derived decision picks one mechanism per epoch: spin down
      after an adapted threshold when the predicted gap amortizes a full
      stop/start cycle, dip to the deepest RPM whose round trip fits the
      predicted gap, or stay at speed when neither pays.

    The module is a leaf: it knows nothing of the simulator.  The
    engine feeds it arrivals and hardware constants and executes the
    mechanism it selects ({!Dp_disksim.Policy.Adaptive}). *)

type config = {
  epoch_requests : int;
      (** arrivals per disk between decision re-derivations (default 16) *)
  alpha : float;
      (** exponential-smoothing weight of the newest gap sample, in
          (0, 1]; higher adapts faster (default 0.25) *)
  guard : float;
      (** safety factor: a mechanism is selected only when the predicted
          gap exceeds [guard] times its round-trip cost, so a noisy
          estimate does not buy a stall (default 2.0) *)
}

val default : config

val config :
  ?epoch_requests:int -> ?alpha:float -> ?guard:float -> unit -> config
(** @raise Invalid_argument when [epoch_requests < 1], [alpha] outside
    (0, 1], or [guard < 1.0]. *)

val describe : config -> string
(** Human label used by {!Dp_disksim.Policy.describe}. *)

(** The hardware constants a decision needs — plain numbers, so the
    controller stays independent of the simulator's disk model. *)
type hardware = {
  breakeven_ms : float;  (** TPM break-even time *)
  spin_down_ms : float;
  spin_up_ms : float;
  rpm_max : int;
  rpm_min : int;
  rpm_step : int;
  level_ms : float;  (** one-level dynamic speed-change time *)
}

(** What the engine should do with the next idle gap on a disk. *)
type mech =
  | Stay  (** idle at full speed: no mechanism predicted to pay *)
  | Spin of float
      (** [Spin threshold_ms]: spin down after this much continuous
          idleness (adapted; at most the break-even time) *)
  | Dip of int * float
      (** [Dip (rpm, threshold_ms)]: after [threshold_ms] of idleness,
          ramp to [rpm] and dwell there until the next arrival *)

type t
(** Controller state for one simulation run (all disks). *)

val make : config -> hardware:hardware -> disks:int -> t

val observe : t -> disk:int -> now_ms:float -> unit
(** Feed one request arrival.  Updates the disk's gap estimate and, at
    epoch boundaries, re-derives its decision.  Arrivals must be fed in
    per-disk chronological order (as the engine serves them). *)

val decide : t -> disk:int -> mech
(** The disk's current (epoch-frozen) decision. *)

val epoch : t -> disk:int -> int
(** How many epoch boundaries the disk has crossed. *)
