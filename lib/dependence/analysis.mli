module Ir = Dp_ir.Ir

(** Per-nest symbolic dependence analysis (Section 6.1).

    For every ordered pair of references to the same array with at least
    one write, a distance vector is extracted:

    - {e uniformly generated} pairs (identical iterator coefficients in
      every dimension) are solved exactly with {!Linear_solve}, yielding
      exact distances where the system pins them down;
    - other pairs fall back to the GCD and Banerjee range tests of
      {!Dep_tests}; when a dependence cannot be ruled out, the
      conservative all-[Any] vector is reported.

    Vectors are oriented forward with {!Depvec.normalize}; intra-iteration
    (zero) vectors are dropped since iterations are scheduled atomically
    by the restructurer. *)

type kind = Flow | Anti | Output

type dep = {
  array : string;
  src_stmt : int;
  dst_stmt : int;
  kind : kind;
  vector : Depvec.t;
}

val pp_dep : Format.formatter -> dep -> unit

val nest_dependences : Ir.nest -> dep list
(** All loop-carried dependences of a nest, deduplicated. *)

val distance_vectors : Ir.nest -> Depvec.t list
(** Just the vectors of {!nest_dependences}, deduplicated. *)

val outermost_parallel_loop : Ir.nest -> int option
(** 0-based depth of the outermost parallelizable loop, for coarse-grain
    parallelism. [None] when every loop carries a dependence. *)
