module Ir = Dp_ir.Ir

(** A request trace as columns: the one form of a trace inside the
    program.

    Request [i] is [arrival.(i)], [think.(i)], [seg.(i)], ... — the
    fields of {!Request.t}, one array each, every array of the trace's
    {!length}.  The requests are in {!Request.compare_arrival} order,
    and every id ([seg], [proc], [disk]) is non-negative.  A trace is
    built by {!of_list}, by {!Builder.finish} (the generator and the
    binary decoder fill a builder), by {!merge} or by {!map_times}, and
    each checks the order, in the pass that records the counts, and
    sorts — stably, so requests that compare equal keep their input
    order — only when the input is out of order.

    The record is private so that a consumer reads the columns
    directly; none may write to them.  A trace costs 65 bytes a
    request, against 136 for a list of {!Request.t}, and reading it
    allocates nothing. *)

type t = private {
  arrival : Float.Array.t;  (** [arrival_ms] *)
  think : Float.Array.t;  (** [think_ms] *)
  seg : int array;
  address : int array;
  lba : int array;
  size : int array;
  proc : int array;
  disk : int array;
  mode : Bytes.t;  (** ['R'] or ['W'] *)
  procs : int;  (** 1 + the largest [proc]; 0 for the empty trace *)
  segments : int;  (** 1 + the largest [seg]; 0 for the empty trace *)
  disks : int;  (** 1 + the largest [disk]; 0 for the empty trace *)
  finite : bool;  (** every arrival and think time is finite *)
}

val empty : t
val length : t -> int

val mode : t -> int -> Ir.access_mode
(** The access mode of request [i]. *)

val get : t -> int -> Request.t
(** Request [i] as a record: a view for printing and for tests. *)

val of_list : ?caller:string -> Request.t list -> t
(** The trace of a request list, put in {!Request.compare_arrival}
    order as {!Request.sort_arrival} would.
    @raise Invalid_argument ["CALLER: request with negative FIELD V"]
    for the first request, in list order, whose [proc], [seg] or [disk]
    is negative; [caller] defaults to ["Trace.of_list"]. *)

val to_list : t -> Request.t list
(** The requests as records, in trace order: the view for text I/O. *)

val map_times : (float -> float) -> t -> t
(** The trace with every arrival and think time mapped through [f] and
    the order checked again (a rounding [f] can tie requests that were
    apart, and ties break on [proc] and [address]). *)

(** {1 Building a trace a request at a time} *)

module Builder : sig
  type trace := t

  type t
  (** Growable columns. *)

  val create : int -> t
  (** An empty builder with room for this many requests; it grows as
      needed. *)

  val add :
    t ->
    arrival:float ->
    think:float ->
    seg:int ->
    address:int ->
    lba:int ->
    size:int ->
    mode:Ir.access_mode ->
    proc:int ->
    disk:int ->
    unit
  (** Append one request.  The ids must be non-negative: a builder
      trusts its caller, who has checked them against its own input. *)

  val finish : t -> trace
  (** The requests added so far, in {!Request.compare_arrival} order:
      put there by a stable sort only when they were added out of it. *)
end

val merge : t array -> t
(** The runs interleaved into one trace, where run [p] holds the
    requests of processor [p] alone: each run is already in order and
    the processor breaks every tie between runs, so each step takes the
    earliest head, the lower run on equal arrivals.  The heads wait in
    a {!Dp_util.Minheap}, so merging n requests from k runs costs
    O(n log k).  The result is checked like any trace, so runs that
    break the contract (a run out of order, a processor in the wrong
    run, a NaN arrival) still give a trace in order, at the cost of a
    stable sort of the merged requests. *)
