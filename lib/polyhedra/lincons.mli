(** Linear constraints over named integer variables: the atoms of the
    omega-lite integer sets. *)

type t =
  | Ge of Dp_affine.Affine.t  (** [e >= 0] *)
  | Eq of Dp_affine.Affine.t  (** [e = 0] *)
  | Stride of { expr : Dp_affine.Affine.t; modulus : int }
      (** [e = 0 (mod m)], with [m >= 1]; captures striping residues. *)

val ge : Dp_affine.Affine.t -> t
val le : Dp_affine.Affine.t -> Dp_affine.Affine.t -> t
(** [le a b] is [b - a >= 0]. *)

val eq : Dp_affine.Affine.t -> Dp_affine.Affine.t -> t
(** [eq a b] is [a - b = 0]. *)

val stride : Dp_affine.Affine.t -> int -> t
(** @raise Invalid_argument when the modulus is not positive. *)

val vars : t -> string list
val subst : string -> Dp_affine.Affine.t -> t -> t

val eval : (string -> int) -> t -> bool
(** Truth of the constraint under a full assignment. *)

val is_trivially_true : t -> bool
(** Constant constraints that always hold (e.g. [3 >= 0]). *)

val is_trivially_false : t -> bool

val pp : Format.formatter -> t -> unit
