(** Affine (linear + constant) integer expressions over named variables.

    These are the subscript and loop-bound expressions the compiler
    manipulates: [c0 + c1*i1 + ... + cn*in].  The representation is
    canonical: terms are sorted by variable name and never carry a zero
    coefficient, so structural equality coincides with semantic equality. *)

type t

val const : int -> t
val var : string -> t
val term : int -> string -> t
(** [term c v] is [c*v]. *)

val of_terms : ?const:int -> (string * int) list -> t
(** Build from (variable, coefficient) bindings; duplicate variables are
    summed, zero coefficients dropped. *)

val zero : t

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val neg : t -> t

val coeff : t -> string -> int
(** Coefficient of a variable (0 when absent). *)

val constant : t -> int
val terms : t -> (string * int) list
(** Sorted (variable, nonzero coefficient) list. *)

val vars : t -> string list
val is_const : t -> bool
val equal : t -> t -> bool

val subst : string -> t -> t -> t
(** [subst v e t] replaces every occurrence of [v] in [t] by [e]. *)

val rename : (string -> string) -> t -> t

val eval : (string -> int) -> t -> int
(** Evaluate under an environment.
    @raise Not_found if the environment lacks a variable. *)

val eval_opt : (string -> int option) -> t -> t
(** Partially evaluate: substitute the variables the environment knows. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
