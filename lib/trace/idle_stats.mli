(** Per-disk idle-gap statistics of a trace — the quantity every policy
    in the paper feeds on ("most prior techniques to disk power
    management become more effective with long disk idle periods").

    Gaps are measured on the nominal (full-speed) timeline between the
    estimated completion of one request and the arrival of the next on
    the same disk. *)

type histogram = {
  edges : float array;  (** ascending bucket upper edges, seconds *)
  counts : int array;  (** [counts.(k)]: gaps in bucket [k]; one extra
                           final bucket for gaps beyond the last edge *)
  mass_s : float array;  (** total idle seconds per bucket *)
}

val default_edges : float array
(** 1 s, 4 s, 15.2 s (the TPM break-even), 31.6 s (the proactive TPM
    round trip), 120 s. *)

val of_trace : ?edges:float array -> ?cost:Cost_model.t -> Trace.t -> histogram
(** One pass over the trace's columns in arrival order, with per-disk
    state sized by the trace's disk count. *)

val total_gaps : histogram -> int
val total_mass_s : histogram -> float

val exploitable_mass_s : histogram -> threshold_s:float -> float
(** Idle seconds in gaps at least [threshold_s] long (whole buckets whose
    lower edge reaches the threshold). *)

val pp : Format.formatter -> histogram -> unit
(** One line per bucket: range, gap count, idle mass. *)
