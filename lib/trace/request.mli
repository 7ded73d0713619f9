module Ir = Dp_ir.Ir

(** Disk I/O requests — the fields the paper's simulator consumes
    (Section 7.1): arrival time, start block, size, read/write, and the
    issuing processor; plus the I/O node the striping resolves it to.
    Inside the program a trace holds them as columns ({!Trace.t}), the
    served array's tenant streams included; this record is the view of
    one request, for the text format, printing and the list adapters
    the benchmark's traced pass still calls. *)

type t = {
  arrival_ms : float;
      (** nominal arrival on the full-speed timeline (reference only;
          the simulator is closed-loop and derives actual issue times
          from [think_ms]) *)
  think_ms : float;
      (** compute time separating this request from the completion of
          the same processor's previous request (or from the segment
          barrier) — the closed-loop inter-request gap *)
  seg : int;
      (** fork-join segment index (barriers between segments); like
          [proc] and [disk], a non-negative id *)
  address : int;  (** global byte address (start block x block size) *)
  lba : int;  (** on-node byte position (per-disk seek-distance space) *)
  size : int;  (** bytes *)
  mode : Ir.access_mode;
  proc : int;
  disk : int;  (** I/O node, resolved via the layout *)
}

val compare_arrival : t -> t -> int
(** Order by arrival time, ties by [proc], then by [address]. *)

val sort_arrival : t list -> t list
(** Put a request list in {!compare_arrival} order: a stable sort, so
    requests that compare equal keep their input order.  A list already
    in order is returned as is — physically the argument, after one
    allocation-free pass.  No program path calls it: a trace, the served
    array's tenant streams and multiplexer included, is a {!Trace.t}
    built in this order.  Tests call it as the reference order for
    {!Trace.of_list}. *)

val pp : Format.formatter -> t -> unit

(** {1 Trace files}

    Text format, one request per line:
    [arrival_ms think_ms seg address lba size R|W proc disk], with [#]
    comments.  Compiler power hints ({!Hint.t}) travel in the same file
    as [H ...] lines after the requests, and an optional fault-injection
    window ({!Dp_faults.Fault_model.t}) as a single
    [F seed:rate:classes] line. *)

type load_error = {
  file : string;
  line : int;  (** 1-based; [0] when the file could not be read *)
  msg : string;  (** names the offending field and its value *)
}

val load_error_to_string : load_error -> string
(** Rendered as [file:line: message] — the shape editors jump on. *)

val save : ?hints:Hint.t list -> ?faults:Dp_faults.Fault_model.t -> string -> t list -> unit

val to_channel : ?hints:Hint.t list -> ?faults:Dp_faults.Fault_model.t -> out_channel -> t list -> unit

val of_string :
  file:string ->
  string ->
  (t list * Hint.t list * Dp_faults.Fault_model.t option, load_error) result
(** Parse the contents of a text trace: requests and hints in file
    order, plus the fault window if the text carries an [F] line.  The
    first malformed line stops the parse and is reported with [file],
    its 1-based line number and the offending field.
    {!Bin.load_result} reads a trace file and hands a text one here. *)

val parse_line_res : string -> (t, string) result
(** Parse one request line; the error names the offending field.  The
    ids [seg], [proc] and [disk] must be non-negative integers. *)
