(** Arbitrary-sign rationals over native [int], always kept in normal form
    (positive denominator, numerator and denominator coprime).

    Used by the Fourier-Motzkin elimination in {!Dp_polyhedra} and by the
    DRPM power-model fitting in {!Dp_disksim}.  Native ints (63-bit) are
    ample for the coefficient ranges produced by the compiler passes. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_int : t -> bool

val floor : t -> int
(** Largest integer [<=] the rational (true floor, also for negatives). *)

val ceil : t -> int
(** Smallest integer [>=] the rational. *)

val pp : Format.formatter -> t -> unit

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool
