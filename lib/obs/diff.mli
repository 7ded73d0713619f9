(** Cross-run distribution-shift analysis over gap-histogram JSONL
    artifacts — the exact comparison that replaces eyeballing two
    histograms.

    An artifact is what {!Report.jsonl} writes (and [dpsim --obs gaps
    OUT], [dpcc serve --obs-jsonl], [dpcc fault-sweep --obs-jsonl]
    emit): one JSON object per disk per line, each carrying the three
    log-bucket histograms (idle gaps, response times, standby
    residencies) plus the per-disk totals.  Artifacts may concatenate
    several runs (the sweep artifact does); lines are paired
    positionally and must agree on disk id and bucket edges.

    Two statistics per distribution, both computed on the shared
    log-bucket grid:

    - {b KS}: the Kolmogorov–Smirnov statistic, the maximum absolute
      difference between the two empirical CDFs — in [0, 1], scale-free,
      what [--threshold] gates on;
    - {b EMD}: the earth-mover (Wasserstein-1) distance between the
      normalized bucket masses with unit ground distance between
      adjacent buckets — "how many buckets did the mass move", which
      for a log grid reads as decades-of-milliseconds shifted.

    A self-diff (A vs A) is exactly zero on every statistic — the CI
    gate. *)

type hist = {
  edges : float array;
  counts : int array;
  count : int;
  sum : float;
  vmax : float;
}

(** One artifact line (one disk of one run). *)
type side = {
  disk : int;
  requests : int;
  busy_ms : float;
  idle_ms : float;
  standby_ms : float;
  transition_ms : float;
  energy_j : float;
  hints : int;
  faults : int;
  idle_gaps : hist;
  response : hist;
  standby_residency : hist;
}

type shift = { ks : float; emd : float }

type line_diff = {
  index : int;  (** artifact line number, 0-based *)
  disk : int;
  gaps : shift;
  resp : shift;
  residency : shift;
  d_energy_j : float;  (** B − A throughout *)
  d_requests : int;
  d_mean_response_ms : float;
  d_standby_share : float;
      (** delta of standby_ms over total accounted time, in [-1, 1] *)
}

type report = {
  lines : line_diff list;
  max_ks : float;  (** worst KS across every line and distribution *)
  max_emd : float;
}

val parse : string -> (side list, string) result
(** Parse artifact contents (one JSON object per line; blank lines
    ignored).  Errors name the line and what was wrong. *)

val load : string -> (side list, string) result
(** [parse] of a file's contents; [Error] on unreadable paths too. *)

val diff : a:side list -> b:side list -> (report, string) result
(** Pair lines positionally.  [Error] when the artifacts have
    different line counts, a pair disagrees on disk id, or paired
    histograms were bucketed on different edges. *)

val shift_of : hist -> hist -> shift
(** The KS/EMD core, exposed for tests.  Histograms must share edges.
    Two empty histograms are zero shift; empty-vs-nonempty is maximal
    ([ks = 1], [emd] = bucket count). *)

val exceeds : threshold:float -> report -> bool
(** [max_ks > threshold] — the [dpcc obs diff --threshold] gate. *)

val pp : Format.formatter -> report -> unit
(** The human table: one line per artifact line, sign-aware deltas
    ([+]/[-] always printed), maxima last. *)

val to_json : report -> Dp_util.Json.t
(** One JSON object: ["lines"] array plus ["max_ks"]/["max_emd"] — what
    CI asserts zeros on.  [dpcc obs diff --json] prints it compact. *)
