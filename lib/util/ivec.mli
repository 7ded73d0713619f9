(** Integer vectors, used for iteration vectors and dependence distance
    vectors.  A vector is an immutable [int array]; all operations allocate
    fresh arrays. *)

type t = int array

val add : t -> t -> t
(** @raise Invalid_argument on dimension mismatch. *)

val sub : t -> t -> t
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
