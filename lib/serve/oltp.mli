(** Deterministic synthetic OLTP-style tenant workload.

    The six paper applications are batch jobs with compiler-predictable
    schedules; a served array also carries tenants nothing was compiled
    for.  This generator produces such a stream: short independent
    requests separated by exponentially distributed think times, skewed
    onto a small per-tenant hot set of disks, with a mixed read/write
    ratio and small transfer sizes.  Everything is drawn from a
    {!Dp_util.Splitmix} stream, so a tenant's workload is a pure
    function of its generator — equal seeds, equal streams. *)

type params = {
  requests : int;  (** stream length *)
  mean_gap_ms : float;  (** mean of the exponential think time *)
  hot_disks : int;  (** size of the tenant's hot set *)
  hot_start : int;
      (** first disk of the hot set (taken mod the array size, so
          different tenants heat different disks) *)
  hot_bias : float;  (** probability a request lands in the hot set *)
  write_ratio : float;
  region_bytes : int;  (** per-disk address region the tenant touches *)
}

val draw : Dp_util.Splitmix.t -> params
(** A plausible tenant: 48–112 requests, 0.4–4 s mean think time, a hot
    set of 1–2 disks receiving 60–90% of the traffic, 10–50% writes,
    a 16–64 MB region.  Consumes a fixed number of draws. *)

val generate : Dp_util.Splitmix.t -> disks:int -> params -> Dp_trace.Trace.t
(** The tenant's request stream, a one-processor trace written as
    columns: [proc = 0], [seg = 0], nominal arrivals strictly
    increasing from the first gap, think times the inter-request gaps
    (closed-loop semantics).  [disks] clamps the hot set and the cool
    remainder to the array.
    @raise Invalid_argument when [disks < 1] or [params.requests < 0]. *)
