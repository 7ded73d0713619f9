(** Wall-clock-free pass profiling for the compiler pipeline.

    A global, off-by-default accumulator of named spans measured with
    [Sys.time] (CPU seconds — no extra dependency, stable under CI
    noise).  When disabled, {!span} costs one branch and a closure call;
    the compiler passes can therefore keep their hooks unconditionally.

    Usage: [Prof.enable ()], run passes, [Prof.pp_table] to print the
    per-pass timing table ([dpcc --profile]). *)

type entry = {
  p_name : string;
  mutable total_s : float;  (** accumulated CPU seconds *)
  mutable calls : int;      (** number of {!span} invocations *)
  mutable items : int;      (** optional work counter (see {!count}) *)
}

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all entries (keeps the enabled flag). *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, if enabled, charges its CPU time to
    [name].  Exceptions propagate; the time is charged regardless. *)

val count : string -> int -> unit
(** [count name n] adds [n] to the work counter of [name] (e.g. number
    of scheduler rounds), creating the entry if needed.  No-op when
    disabled. *)

val entries : unit -> entry list
(** Sorted by decreasing total time. *)

val pp_table : Format.formatter -> unit -> unit
(** The [dpcc --profile] per-pass timing table. *)
