(** Loop-nest intermediate representation.

    A {!program} is a sequence of perfectly-nested affine loop nests over
    disk-resident arrays — the input class the paper targets (Section 2:
    "large scientific applications that operate on disk-resident arrays
    using nested loops and exhibit regular data access patterns").

    Loop bounds are inclusive affine expressions over the enclosing loop
    indices; subscripts are affine expressions over all indices of the
    owning nest.  One array element stands for one disk page (the paper
    accesses disk-resident data "at a page block granularity"), so an
    array declaration's [elem_size] is the I/O request size its accesses
    generate. *)

type access_mode = Read | Write

type array_ref = {
  array : string;
  subscripts : Dp_affine.Affine.t list;  (** one per array dimension *)
  mode : access_mode;
}

type stmt = {
  stmt_id : int;  (** unique within the program *)
  refs : array_ref list;  (** in textual order *)
  work_cycles : int;  (** CPU cost of one instance, in cycles *)
  label : string option;
}

type loop = {
  index : string;
  lo : Dp_affine.Affine.t;  (** inclusive lower bound *)
  hi : Dp_affine.Affine.t;  (** inclusive upper bound *)
}

type nest = {
  nest_id : int;  (** unique within the program *)
  loops : loop list;  (** outermost first; never empty *)
  body : stmt list;
}

type array_decl = {
  name : string;
  dims : int list;  (** extents, outermost first; never empty *)
  elem_size : int;  (** bytes per element (= per disk page) *)
  file : string;  (** backing file name (one array per file, Section 2) *)
}

type program = { arrays : array_decl list; nests : nest list }

(** {1 Construction helpers} *)

val array_decl : ?elem_size:int -> ?file:string -> string -> int list -> array_decl
(** [elem_size] defaults to 8 (a double); [file] defaults to ["<name>.dat"]. *)

val read : string -> Dp_affine.Affine.t list -> array_ref
val write : string -> Dp_affine.Affine.t list -> array_ref
val stmt : ?label:string -> ?work_cycles:int -> int -> array_ref list -> stmt
(** [stmt id refs]; [work_cycles] defaults to 1000. *)

val loop : string -> Dp_affine.Affine.t -> Dp_affine.Affine.t -> loop
val nest : int -> loop list -> stmt list -> nest
val program : array_decl list -> nest list -> program

(** {1 Validation} *)

type error =
  | Unknown_array of { nest_id : int; array : string }
  | Arity_mismatch of { nest_id : int; array : string; expected : int; got : int }
  | Unbound_variable of { nest_id : int; var : string }
  | Duplicate_index of { nest_id : int; var : string }
  | Duplicate_array of string
  | Duplicate_nest_id of int
  | Empty_nest of int

val pp_error : Format.formatter -> error -> unit
val validate : program -> (unit, error list) result
(** Check well-formedness: declared arrays, subscript arity, variables in
    scope, unique ids.  All passes assume a validated program. *)

(** {1 Queries} *)

val find_array : program -> string -> array_decl option
val array_elems : array_decl -> int
(** Total number of elements (product of extents). *)

val array_bytes : array_decl -> int
val total_bytes : program -> int
val nest_depth : nest -> int
val nest_indices : nest -> string list
val arrays_referenced : nest -> string list
(** Distinct array names, in first-reference order. *)

(** {1 Iteration enumeration}

    Iteration vectors list index values outermost-first, in the order of
    [nest.loops]. *)

val iter_nest : nest -> (Dp_util.Ivec.t -> unit) -> unit
(** Enumerate the nest's iteration vectors in original (lexicographic)
    execution order.  Bounds that reference outer indices (triangular
    loops) are evaluated on the fly. *)

val nest_iterations : nest -> Dp_util.Ivec.t list
(** All iteration vectors, in execution order.  Intended for the scaled
    workloads (up to a few hundred thousand iterations). *)

val iteration_count : nest -> int

val env_of_iteration : nest -> Dp_util.Ivec.t -> string -> int
(** Environment mapping the nest's loop indices to their values in the
    given iteration vector, by name.
    @raise Not_found for a name that is not an index of this nest. *)

val element_accesses : nest -> Dp_util.Ivec.t -> (array_ref * int list) list
(** Concrete (reference, element coordinates) pairs an iteration touches,
    evaluated by name through {!env_of_iteration}.  This is the
    reference the {!Compiled} kernels are tested against; no library
    pass calls it. *)

val iteration_work : nest -> int
(** Total [work_cycles] of one iteration of the nest body. *)

(** {1 Compiled form}

    The integer form every per-instance pass reads: the dependence
    scan, the cluster table, both parallelizations, trace generation
    and the layout cost.  Compiling resolves every name once — an array
    to its position in [prog.arrays], a loop index to its position in
    the iteration vector — so a pass evaluates an access with integer
    arithmetic on the instance's vector: no lookup, no list, no copy. *)

module Compiled : sig
  type row = { coeffs : int array; const : int }
  (** An affine expression over the owning nest's iteration vector:
      [const + coeffs.(0) * iter.(0) + ... + coeffs.(d-1) * iter.(d-1)],
      one coefficient per loop, outermost first. *)

  type access = {
    mode : access_mode;
    array : int;  (** position of the array in [prog.arrays] *)
    subscripts : row array;  (** one per array dimension *)
  }

  type stmt = {
    work_cycles : int;
    accesses : access array;  (** the statement's refs, in textual order *)
  }

  type nest = {
    lo : row array;  (** inclusive lower bound of each loop, outermost first *)
    hi : row array;  (** inclusive upper bound of each loop *)
    body : stmt array;
  }

  val compile : program -> nest array
  (** One compiled nest per nest of [prog.nests], in order, so an
      instance's nest is an array index.
      @raise Invalid_argument on a reference to an undeclared array or
      a variable outside its nest's indices ({!validate} rejects both). *)

  val eval : row -> Dp_util.Ivec.t -> int
  (** The row's value at an iteration vector of its nest. *)
end

(** {1 Pretty-printing} *)

val pp_ref : Format.formatter -> array_ref -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_nest : Format.formatter -> nest -> unit
val pp_program : Format.formatter -> program -> unit
