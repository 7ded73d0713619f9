(** The arrival-time multiplexer: N tenant streams onto one array.

    Each tenant gets a seed-driven start offset (uniform in
    [\[0, jitter_ms)]) and its stream is shifted wholesale into a column
    run of its own; the runs are then merged by {!Dp_trace.Trace.merge}
    into one trace in {!Dp_trace.Request.compare_arrival} order.  A
    tenant's requests keep their relative spacing — the offset lands in
    the first request's think time, later think times are untouched —
    and its id lands in the processor column, which is what the
    closed-loop engine issues on and what per-tenant accounting keys
    on.

    Normalized tenant streams have strictly increasing arrivals
    ({!Tenant.population}) and the shift is constant per tenant, so each
    run is in order and the merge keeps every tenant's request order
    (the QCheck property in the test suite).  Tenants are listed in
    index order, so run [p] is processor [p] and ties across tenants
    break on the lower index: the merged order is the one a stable sort
    of all the shifted requests would give, without the sort.  A run a
    shift leaves out of order is sorted by {!Dp_trace.Trace.Builder},
    like any trace.  The merge is serial and a pure function of its
    inputs: the same generator and streams give a byte-identical merged
    trace whatever [--jobs] later fans out over it. *)

val trace : rng:Dp_util.Splitmix.t -> jitter_ms:float -> Tenant.t list -> Dp_trace.Trace.t
(** The merged trace.  One child generator is split off [rng] per
    tenant in list order.
    @raise Invalid_argument when [jitter_ms] is negative. *)

val merge :
  rng:Dp_util.Splitmix.t ->
  jitter_ms:float ->
  Tenant.t list ->
  Dp_trace.Request.t list
(** [Trace.to_list (trace ~rng ~jitter_ms tenants)]: a list adapter
    kept for the benchmark's traced pass until it runs the CLI's own
    entry points. *)
