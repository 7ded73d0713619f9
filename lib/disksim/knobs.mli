(** The reliability knobs of one simulated run, after Dash, Sahu & Kewal's
    bad-sector cost shape (arXiv 1908.01167): a seeded fault window, the
    persistent-failure domain ({!Dp_repair.Repair}) with its scrub
    budget and spare pool, and a per-request deadline.  Both CLIs, the
    served array and the chaos harness validate and arm them here. *)

type t = {
  faults : Dp_faults.Fault_model.t option;
      (** a deterministic fault injector: the same configuration
          reproduces the same perturbed run bit for bit, and rate [0.0]
          reproduces the fault-free run byte for byte *)
  retry : Policy.retry_config;  (** how persistently faulted operations are re-attempted *)
  repair : Dp_repair.Repair.config option;  (** an explicit repair config (scrub budget etc.) *)
  spare : int option;  (** per-disk spare-pool size override *)
  deadline_ms : float option;
      (** a media-error retry storm that blows the deadline is abandoned
          and the read fails over to the disk's mirror; responses past it
          are {!Dp_obs.Event.Deadline} misses, stamped on the disk's
          clock when the request completes there or, for a failover,
          when the disk abandoned its retries (the response and its
          [Service] span include the mirror's read) *)
}

val none : t
(** The paper's fault-free engine, with {!Policy.default_retry}. *)

val make :
  ?faults:Dp_faults.Fault_model.t ->
  ?scrub_ms:float ->
  ?spare:int ->
  ?deadline_ms:float ->
  unit ->
  (t, string) result
(** The knobs of flag or spec input.  A positive [scrub_ms] becomes a
    repair config with that scrub budget per idle gap; [0] (the default)
    leaves scrubbing off.  [scrub_ms] must be finite and non-negative,
    [spare] at least 1, [deadline_ms] finite and positive, and the fault
    rate within [\[0, 1\]]; the error names the flag and echoes the
    value. *)

val check : t -> (t, string) result
(** {!make}'s rules for a record built in code; the repair config's
    scrub budget answers for [--scrub-ms]. *)

val armed_repair : t -> Dp_repair.Repair.config option
(** The one arming rule: the explicit [repair] config, else
    {!Dp_repair.Repair.default} (scrub off, so a rate-0 decay run stays
    byte-identical to a clean one) when the faults include media decay
    or a deadline is set, else none. *)

val model : t -> Disk_model.t -> Disk_model.t
(** The drive with the [spare] override applied. *)

val armed : t -> bool
(** A fault rate above 0, a repair config, a spare override or a
    deadline: reports print their reliability extras only then. *)
