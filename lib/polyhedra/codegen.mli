module Ir = Dp_ir.Ir

(** Loop code generation from integer sets — the omega-lite equivalent of
    the Omega library's [codegen] utility the paper relies on (Fig. 3:
    "Omega_lib generates the loop nests that iterate over the data
    elements in Q_di").

    The generated code scans a set in lexicographic order of its
    variables.  Bounds may involve floor/ceil division (coefficient > 1)
    and loops may have a stride with a residue alignment; anything not
    expressible as a bound or stride becomes an explicit guard. *)

type bound = { expr : Dp_affine.Affine.t; div : int }
(** [expr / div], with ceiling semantics in lower bounds and floor
    semantics in upper bounds; [div >= 1]. *)

type code =
  | For of {
      var : string;
      lo : bound list;  (** max of these (never empty) *)
      hi : bound list;  (** min of these (never empty) *)
      step : int;
      align : Dp_affine.Affine.t option;
          (** when present: iterate only [var = align (mod step)] *)
      body : code list;
    }
  | Guard of Lincons.t list * code list
  | Exec of string  (** opaque statement payload label *)

val scan : Iset.t -> payload:string -> code list
(** Code scanning all points of the set.
    @raise Iset.Unbounded when some variable lacks a symbolic bound. *)

val pp : Format.formatter -> code list -> unit

val points_of_code : code list -> (string -> int) -> int array list
(** Interpreter for the generated code (used to validate codegen against
    {!Iset.enumerate}): runs the loops under an environment giving values
    to any free symbols, returning the scanned points in order.  Points
    are reported for each [Exec] reached, as the values of the enclosing
    loop variables, outermost first. *)
