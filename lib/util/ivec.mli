(** Integer vectors, used for iteration vectors and dependence distance
    vectors.  A vector is an immutable [int array]; all operations allocate
    fresh arrays. *)

type t = int array

val zero : int -> t
val of_list : int list -> t
val to_list : t -> int list

val add : t -> t -> t
(** @raise Invalid_argument on dimension mismatch. *)

val sub : t -> t -> t
val scale : int -> t -> t
val neg : t -> t
val dot : t -> t -> int
val equal : t -> t -> bool

val compare_lex : t -> t -> int
(** Lexicographic comparison; vectors must have the same dimension. *)

val is_lex_positive : t -> bool
(** True iff the first nonzero entry is positive (the zero vector is not
    lexicographically positive). *)

val is_lex_negative : t -> bool
val is_zero : t -> bool

val first_nonzero : t -> int option
(** Index of the first nonzero entry, if any. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
