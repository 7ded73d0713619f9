(** Imperative binary min-heap of integer ids under float keys: the one
    priority queue of the program.

    An entry is an id with a key; the heap orders its entries by key,
    ties toward the smaller id, so the order is total and the pops of a
    given set of entries come out in one sequence however they were
    added.  Keys must not be NaN: every user keys on times or values
    it has already checked to be numbers.

    The users: the engine's issue loop (processors under their next
    issue instants), {!Dp_trace.Trace.merge} (runs under their head
    arrivals), the served array's response merge (tenants under their
    next sample) and its per-tenant hint merge, and the disk-reuse
    scheduler (instances under one constant key, so they come out in
    id order). *)

type t

val create : ?capacity:int -> unit -> t
(** An empty heap with room for [capacity] entries (default 16); it
    grows as needed. *)

val is_empty : t -> bool
val size : t -> int

val add : t -> key:float -> int -> unit
(** [add h ~key id] inserts [id] under [key].  An id may be present
    more than once. *)

val top : t -> int
(** The id of the least entry.
    @raise Not_found when empty. *)

val top_key : t -> float
(** The key of the least entry.
    @raise Not_found when empty. *)

val pop : t -> unit
(** Remove the least entry.
    @raise Not_found when empty. *)

val replace_top : t -> key:float -> int -> unit
(** [replace_top h ~key id] is [pop h; add h ~key id] in one sift: the
    step of a k-way merge, whose top run comes back with its next head.
    @raise Not_found when empty. *)
