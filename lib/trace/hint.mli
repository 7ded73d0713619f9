(** Compiler-directed power hints.

    The restructurer knows the per-disk access clusters statically, so it
    can tell the power manager what the future holds instead of leaving
    it to rediscover idleness reactively: spin a disk down the moment its
    cluster ends, start the spin-up early enough to hide the latency, or
    park the platters at a reduced speed for the duration of a gap.  The
    directives ride alongside the request stream in the trace file (see
    {!Request.save}) and are executed by the simulation engine when the
    policy's [proactive] flag is set. *)

type action =
  | Spin_down  (** spin down to standby now; the cluster just ended *)
  | Pre_spin_up of float
      (** [Pre_spin_up lead_ms]: start spinning up [lead_ms] before the
          next access so the platters are at speed on arrival *)
  | Set_rpm of int
      (** serve-free window: drop to this rotation speed, restoring full
          speed before the next access *)

type t = {
  at_ms : float;
      (** nominal (full-speed timeline) time of the directive; hints are
          matched to inter-arrival gaps by nominal time, so closed-loop
          drift cannot misroute them *)
  disk : int;  (** a non-negative id *)
  action : action;
}

val compare_at : t -> t -> int
(** Order by nominal time, ties by disk. *)

val action_name : action -> string
(** Short human label: ["spin-down"], ["pre-spin-up(<lead> ms)"],
    ["set-rpm(<rpm>)"] — used by observability events. *)

val pp : Format.formatter -> t -> unit
(** One trace-file line: [H at_ms disk D], [H at_ms disk U lead_ms] or
    [H at_ms disk S rpm]. *)

val is_hint_line : string -> bool
(** Recognize a (trimmed) trace-file hint line by its [H ] prefix. *)

val parse_line_res : string -> (t, string) result
(** Parse one hint line; the error names the offending field.  The time
    and the pre-spin-up lead must be finite numbers: a [nan] time would
    sort before every other hint and stall the disk's hint stream.  The
    disk must be a non-negative integer. *)
