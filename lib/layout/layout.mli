module Ir = Dp_ir.Ir

(** Program-level disk layout: the striping of every array's backing file
    plus a global byte-address space for traces.

    Each array lives in its own file (Section 2's one-to-one mapping) and
    each file is striped independently over the I/O nodes.  Arrays are
    laid out row-major; an element access stands for one page-granularity
    I/O request of the array's [elem_size] bytes. *)

type entry = { decl : Ir.array_decl; striping : Striping.t; base : int }

type t = private {
  entries : entry list;
      (** one per array of the program, in [prog.arrays] order, so the
          [k]-th entry serves the array an {!Ir.Compiled.access} names
          by position [k] *)
  disk_count : int;  (** number of I/O nodes (max striping factor) *)
}

val make : ?default:Striping.t -> ?overrides:(string * Striping.t) list -> Ir.program -> t
(** Build a layout for every array of the program.  [default] (Table 1
    values unless given) applies to arrays without an override.  Array
    bases are aligned to the array's full stripe width so stripe 0 of
    every file starts on its [start_disk].
    @raise Invalid_argument for an override naming an unknown array. *)

val find : t -> string -> entry
(** @raise Not_found for an unknown array. *)

(** {1 Locating an element}

    An element is located in two steps: its row-major linear index in
    the array ({!index} for a compiled access, {!linear_index} for
    explicit coordinates — both check every coordinate against its
    extent in one place), then the I/O request that index resolves to
    ({!locate}). *)

exception Out_of_bounds of { array : string; dim : int; coord : int; extent : int }
(** Coordinate [coord] of dimension [dim] (0 = outermost) of [array]
    lies outside [\[0, extent)].  The IR does not forbid such
    subscripts, so a program that computes one is malformed input,
    found where its accesses are first resolved against the layout. *)

val index : entry -> Ir.Compiled.access -> Dp_util.Ivec.t -> int
(** Row-major linear index of the element a compiled access touches at
    an iteration vector; the access must name this entry's array.
    @raise Out_of_bounds when a subscript leaves its extent. *)

val linear_index : entry -> int list -> int
(** Row-major linear index of explicit coordinates.
    @raise Invalid_argument on wrong arity.
    @raise Out_of_bounds on a coordinate outside its extent. *)

val locate : entry -> int -> int * int * int
(** [locate e i] is [(disk, address, lba)] of linear element [i]: the
    I/O node that serves it, its global byte address, and its byte
    position {e on that node}.  The stripes a node stores are
    contiguous there, so two file locations a full stripe width apart
    are adjacent on the node; seek distances must be computed in this
    space.  Element pages never straddle stripe units when [elem_size]
    divides the stripe unit; otherwise the request is attributed to the
    node holding its first byte.  The request size is
    [e.decl.elem_size]. *)

(** {1 By name}

    The same, for an array named by string and explicit coordinates. *)

val element_address : t -> string -> int list -> int
(** Global byte address of an element. *)

val element_file_offset : t -> string -> int list -> int
(** Byte offset of an element within its own file. *)

val disk_of_element : t -> string -> int list -> int
(** I/O node that serves accesses to this element. *)

val request_of_element : t -> string -> int list -> int * int * int
(** [(disk, global_address, size_bytes)] of the element's page request. *)

val lba_of_element : t -> string -> int list -> int
(** Byte position of the element on its I/O node (see {!locate}). *)

val elements_per_stripe : t -> string -> int
(** How many consecutive elements share a stripe unit (>= 1). *)

val disk_of_address : t -> int -> int
(** I/O node for a global byte address (resolves the owning array).
    @raise Not_found when the address belongs to no array. *)

val pp : Format.formatter -> t -> unit
