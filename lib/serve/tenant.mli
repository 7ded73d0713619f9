(** Tenant specs and the deterministic tenant population.

    A tenant is one request stream destined for the shared array: either
    a synthetic OLTP stream ({!Oltp}) or a bounded window of one of the
    six paper applications.  A stream is a one-processor
    {!Dp_trace.Trace.t}, normalized ({!normalize}) to a common shape the
    multiplexer relies on: [proc = 0], [seg = 0], arrivals strictly
    increasing from 0, think times equal to the arrival deltas
    (closed-loop), disks folded into the array ([disk mod disks]). *)

type kind =
  | Oltp of Oltp.params
  | App of string  (** a built-in workload name, e.g. ["AST"] *)

type t = {
  index : int;  (** tenant id — becomes [Request.proc] after multiplexing *)
  kind : kind;
  stream : Dp_trace.Trace.t;  (** normalized, see above *)
}

val kind_name : kind -> string
(** ["oltp"] or ["app:<name>"]. *)

val app_window : int
(** Requests kept of an application trace (256): app traces run to
    ~150k requests, far beyond what one tenant contributes to a served
    array, so each app tenant replays this prefix of the 1-processor
    Original trace. *)

val normalize : ?first:int -> disks:int -> Dp_trace.Trace.t -> Dp_trace.Trace.t
(** The tenant shape above, written as columns from the trace's first
    [first] requests (default: all of them), which are already in
    arrival order: arrivals rebased to 0 with exact ties bumped 10 µs
    apart, think times chained to the arrival deltas, [seg] and [proc]
    zeroed and disks folded into the array. *)

val population : rng:Dp_util.Splitmix.t -> tenants:int -> disks:int -> unit -> t list
(** The deterministic population for a served-array run: every fourth
    tenant (index [3 mod 4]) replays an application window, cycling
    through the six paper workloads; the rest are OLTP tenants with
    per-tenant parameters drawn from [rng]'s children.  One child is
    split off [rng] per tenant in index order, so the population is a
    pure function of the generator.

    An app window is built once per application and shared.  It is the
    normalized first {!app_window} requests of the application's
    1-processor Original trace, column for column, but built from the
    program's first iterations alone: {!Dp_dependence.Concrete.instances}
    walks them in original order only until their accesses cover the
    window, and {!Dp_trace.Generate.trace} runs on just those.  No
    dependence graph and no whole trace is built, and no stage store is
    read or written.
    @raise Invalid_argument when [tenants < 1] or [disks < 1]. *)
