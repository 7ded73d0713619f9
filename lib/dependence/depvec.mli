(** Dependence distance/direction vectors (Section 6.1 of the paper).

    A vector has one entry per loop of the nest, outermost first.  An
    entry is either an exact distance ([Dist]) or unknown ([Any], the
    direction-vector [*] of the literature), which the analyses treat
    conservatively. *)

type entry = Dist of int | Any
type t = entry list

val of_dists : int list -> t
val equal : t -> t -> bool

val is_lex_positive : t -> bool
(** Definitely lexicographically positive: some prefix of exact zeros
    followed by a positive exact distance. *)

val is_lex_negative : t -> bool
val is_zero : t -> bool
(** All entries exactly zero. *)

val may_be_lex_negative : t -> bool
(** Whether some concretization of the [Any] entries is lexicographically
    negative (or zero is not counted; strictly negative). *)

val negate : t -> t

val normalize : t -> t option
(** Orient a raw solution as a forward dependence: a definitely
    lex-positive vector is kept, a definitely lex-negative one is negated,
    the zero vector is dropped ([None]), and a vector whose sign is
    unknown keeps its exact-zero prefix with everything from the first
    [Any] on widened to [Any] (covering both orientations). *)

val loop_parallelizable : t list -> int -> bool
(** [loop_parallelizable vectors k] decides whether loop [k] (0-based,
    outermost = 0) can run in parallel: for every vector, either entry
    [k] is exactly 0, or the prefix before [k] is definitely
    lexicographically positive (the dependence is carried by an outer
    sequential loop).  Conservative on [Any]. *)

val outermost_parallel : t list -> depth:int -> int option
(** Outermost parallelizable loop under {!loop_parallelizable}, if any. *)

val pp : Format.formatter -> t -> unit
