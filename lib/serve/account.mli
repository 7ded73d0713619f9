(** Per-tenant accounting over the observability event stream.

    A {!recorder} is a {!Dp_obs.Sink.t} the engine streams into plus a
    finisher that folds what it saw into a {!summary}:

    - {b energy attribution} is demand-based: every power span's energy
      accrues to its disk's pending pot, and a service event drains the
      pot (gap energy plus the busy span) to the issuing tenant — the
      tenant whose arrival terminated the gap pays for it.  Spans after
      a disk's last service go to the tenant it last served; disks never
      serviced at all are reported as [unattributed_j].  Every joule the
      engine emits lands in exactly one tenant pot or the unattributed
      pot, so attribution sums back to the array total (up to float
      regrouping — the engine folds per disk, attribution per tenant).
    - {b response percentiles} are exact nearest-rank over the tenant's
      recorded responses, not histogram-bucket approximations: tenant
      streams are short enough to keep every sample.  The finisher
      sorts each tenant's samples once, with a stable sort on unboxed
      floats that orders them as [Array.stable_sort Float.compare]
      would, and gets the pooled order by merging those sorted runs
      through a {!Dp_util.Minheap} of run heads: O(n log k) for n
      responses over k tenants, and no fixed cost beyond the heap and
      one k-entry array, so finishing a tiny recorder stays cheap.
      Every mean is summed in sorted order.
    - {b fairness} is Jain's index over per-tenant mean response times.
    - {b SLO accounting} (only under a deadline): a response past the
      deadline is a violation, one past four deadlines is counted
      abandoned — the client gave up — and availability is the fraction
      of requests served within the abandonment horizon.

    Single-threaded, like every sink. *)

type tenant_stats = {
  tenant : int;
  requests : int;
  energy_j : float;  (** demand-attributed share of the array energy *)
  response_mean_ms : float;
  response_p50_ms : float;
  response_p95_ms : float;
  response_p99_ms : float;
  response_max_ms : float;
  slo_violations : int;  (** responses past the deadline (0 without one) *)
  abandoned : int;  (** responses past four deadlines (0 without one) *)
}

(** Deadline bookkeeping across the run, present only when the recorder
    was given a deadline. *)
type slo = {
  deadline_ms : float;
  violations : int;
  abandoned : int;
  availability : float;  (** 1 - abandoned/requests; 1.0 on an empty run *)
}

type summary = {
  tenants : tenant_stats array;  (** indexed by tenant id *)
  attributed_j : float;  (** sum of the tenant shares *)
  unattributed_j : float;  (** energy of disks that never served anyone *)
  energy_j : float;
      (** array total as the engine computes it: per-disk span sums
          folded across disks in disk order — bit-identical to
          [Engine.result.energy_j] for the same run *)
  fairness : float;
      (** Jain's index over per-tenant mean responses, in (0, 1]; 1.0
          when no tenant completed a request *)
  requests : int;  (** services seen across all tenants *)
  response_mean_ms : float;  (** pooled over every response in the run *)
  response_p50_ms : float;
  response_p95_ms : float;
  response_p99_ms : float;
  response_max_ms : float;
  slo : slo option;
}

val recorder :
  ?deadline_ms:float -> tenants:int -> disks:int -> unit -> Dp_obs.Sink.t * (unit -> summary)
(** The sink to pass as [Engine.replay ~obs] and the finisher to call
    once the run returns.  The finisher is not idempotent — call it
    exactly once.  [deadline_ms] arms SLO accounting.
    @raise Invalid_argument when [tenants < 1], [disks < 1], or
    [deadline_ms <= 0]. *)

val sort_floats : float array -> unit
(** Sort in place, ascending and stably, as
    [Array.stable_sort Float.compare] does on arrays without NaN: the
    finisher's per-tenant sort, exposed for the tests. *)

val percentile : float array -> float -> float
(** [percentile sorted q]: exact nearest-rank percentile of an
    ascending-sorted sample ([q] in [0, 1]; 0 on an empty sample).
    Exposed for the report path and the tests. *)
