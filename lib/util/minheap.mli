(** Imperative binary min-heap of integers.  The disk-reuse scheduler
    uses it under the default integer order to pick ready iterations in
    original execution order; the disk simulator stores processor ids
    under an order on their next issue instants. *)

type t

val create : ?capacity:int -> ?cmp:(int -> int -> int) -> unit -> t
(** [cmp] (default [Int.compare]) is the heap order, a total order in
    the sense of [compare].  It may read state outside the heap, as long
    as an element's rank does not change while it is in the heap. *)

val by_key : float array -> int -> int -> int
(** [by_key keys] orders elements by [keys.(i)], ties toward the smaller
    element.  A total order while the keys involved are not NaN. *)

val is_empty : t -> bool
val size : t -> int
val add : t -> int -> unit

val pop_min : t -> int
(** Remove and return the smallest element under [cmp].
    @raise Not_found when empty. *)

val peek_min : t -> int
(** @raise Not_found when empty. *)
