(** Histograms with fixed log-spaced buckets: the per-disk idle-gap,
    response-time and standby-residency distributions are all
    instances.  Buckets are fixed at construction (no rebinning), so
    [observe] is O(#buckets) worst case and allocation-free. *)

type histogram = {
  h_name : string;
  edges : float array;
      (** ascending upper bucket edges; one extra final bucket catches
          values beyond the last edge *)
  counts : int array;  (** length [Array.length edges + 1] *)
  mutable sum : float;
  mutable n : int;
  mutable vmax : float;
}

val log_edges : ?per_decade:int -> lo:float -> hi:float -> unit -> float array
(** Log-spaced edges from [lo] to [hi] inclusive, [per_decade] (default
    1) edges per factor of 10.  [log_edges ~lo:1.0 ~hi:1e3 ()] is
    [| 1.; 10.; 100.; 1000. |]. *)

val histogram : ?edges:float array -> string -> histogram
(** Default edges: [log_edges ~lo:1.0 ~hi:1e7 ~per_decade:1 ()] —
    milliseconds from 1 ms to ~3 h. *)

val observe : histogram -> float -> unit
val mean : histogram -> float
(** 0 when empty. *)

val quantile : histogram -> float -> float
(** Upper edge of the bucket holding quantile [q] (0..1) — a
    bucket-resolution approximation; [vmax] for the overflow bucket.
    0 when empty. *)

val pp_histogram : Format.formatter -> histogram -> unit
(** One line per non-empty bucket: range, count, share. *)
