(** List helpers shared across the compiler passes. *)

val group_by : ('a -> 'b) -> 'a list -> ('b * 'a list) list
(** Group elements by key, preserving first-occurrence order of keys and
    the relative order of elements within each group. *)

val max_by : ('a -> int) -> 'a list -> 'a option
(** Element maximizing the measure; first winner on ties. *)

val sum_by : ('a -> int) -> 'a list -> int
val take : int -> 'a list -> 'a list
val drop : int -> 'a list -> 'a list
val range : int -> int -> int list
(** [range lo hi] is [lo; lo+1; ...; hi] (empty if [lo > hi]). *)

val index_of : ('a -> bool) -> 'a list -> int option
val uniq : ('a -> 'a -> bool) -> 'a list -> 'a list
(** Remove duplicates (per the given equality), keeping first occurrences. *)
