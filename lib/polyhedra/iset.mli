module Ir = Dp_ir.Ir

(** Conjunctive integer sets over an ordered variable list — the
    omega-lite core.  A set denotes all integer assignments to [vars]
    satisfying every constraint.

    Projection is rational Fourier–Motzkin (strides mentioning the
    eliminated variable are dropped), which over-approximates the exact
    integer projection; hence {!definitely_empty} is sound when it
    answers [true], and {!enumerate} is exact because it re-checks the
    original constraints pointwise. *)

type t = private { vars : string list; cons : Lincons.t list }

val make : string list -> Lincons.t list -> t
(** @raise Invalid_argument if a constraint mentions a variable outside
    [vars] or [vars] has duplicates. *)

val universe : string list -> t
val constrain : t -> Lincons.t list -> t
val intersect : t -> t -> t
(** @raise Invalid_argument when the variable lists differ. *)

val rename_var : t -> string -> string -> t

val of_nest : Ir.nest -> t
(** Iteration domain of a nest: variables are the loop indices, outermost
    first; constraints are the loop bounds. *)

val contains : t -> int array -> bool
(** Membership of a point given in [vars] order. *)

val simplify : t -> t
(** Drop trivially true constraints and syntactic duplicates.
    Trivially false constraints collapse the set to a canonical empty. *)

val eliminate : string -> t -> t
(** Fourier–Motzkin projection of one variable (see module note). *)

val definitely_empty : t -> bool
(** Sound emptiness: [true] means the set is empty; [false] is unknown. *)

exception Unbounded of string
(** Raised by {!enumerate}/{!is_empty_exact} when a variable has no
    finite lower or upper bound. *)

val enumerate : t -> int array list
(** All points in lexicographic order of [vars].
    @raise Unbounded on unbounded sets. *)

val iter_points : t -> (int array -> unit) -> unit
(** Like {!enumerate} without materializing the list. *)

val is_empty_exact : t -> bool
(** Exact emptiness via bounded scanning (with {!definitely_empty} as a
    fast path). @raise Unbounded on unbounded sets. *)

val cardinal : t -> int
(** Number of points. @raise Unbounded on unbounded sets. *)
