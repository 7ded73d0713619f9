(** A small supervised pool of OCaml 5 domains for fanning out
    independent experiment rows.

    Results are returned in input order regardless of which domain ran
    which task, so a parallel map over deterministic functions is itself
    deterministic: [map ~jobs:n f xs = map ~jobs:1 f xs] byte for byte.

    {b Supervision}: a task failure is confined to its own slot — it
    never deadlocks the pool or poisons sibling slots.  Every cell is
    still attempted (completed cells keep their results and any
    persistent-cache writes they made); once all domains have drained,
    the calling domain re-raises the {e first} failure in input order
    with the backtrace captured at the original raise site, however many
    tasks failed and whichever failed first in wall time.  The serial
    path ([jobs = 1]) has the same complete-all-then-raise semantics, so
    it stays the byte-identical baseline.

    {b The clamp}: a call runs
    [min jobs (List.length xs) (Domain.recommended_domain_count ())]
    domains, spawned for the call and joined before it returns.  A
    domain beyond the hardware's cores buys no parallelism, yet every
    minor collection must still stop it with the others, so no caller
    needs to clamp [jobs] itself.  When that count is 1 — [jobs = 1], a
    singleton or empty input, or a one-core host — the tasks run inline
    on the calling domain and no domain is spawned. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] on up to
    [jobs] domains, never more than the clamp above allows (the calling
    domain counts as one), and returns the results in input order.

    Tasks are claimed from a shared atomic counter, so an imbalanced
    workload still keeps every domain busy.  A task that raises fails
    its own cell only, and is never retried.  All cells are attempted
    before the first input-order failure is re-raised — see the
    supervision contract above.
    @raise Invalid_argument if [jobs < 1]. *)
