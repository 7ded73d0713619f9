(** Binary trace codec: the streaming twin of the text trace format.

    A binary trace carries exactly what a text trace carries — requests,
    compiler hints and an optional fault window — framed for scale
    instead of for humans:

    - a 4-byte magic ({!magic}) plus a format version byte, so readers
      can sniff the format and a version bump orphans old files instead
      of misreading them;
    - records packed into {e chunks}, each prefixed with its byte length
      and trailed by an MD5 checksum, so truncation and bit rot are
      detected at the offending chunk, not as garbage downstream;
    - varint fields with zigzag delta encoding against cheap per-stream
      predictors (previous arrival, per-disk next-sequential address),
      so a request costs a handful of bytes instead of a 40-byte line.

    Timestamps take a fast path when the value is exactly a count of
    thousandths of a millisecond — true for every float that came from
    the text format's [%.3f] rendering, verified bit-for-bit at encode
    time — and fall back to raw IEEE-754 bits otherwise, so decoding
    always reproduces the exact floats that were encoded.  {!quantize}
    rounds a request to the text format's 3-decimal precision; a trace
    quantized before encoding converts losslessly [text ⇄ bin] (the
    fault window round-trips through its [seed:rate:classes] spec, with
    the same default spike/window lengths as the text [F] line).

    The reader is streaming: {!fold_path} decodes chunk by chunk into a
    reused buffer and never materializes the trace, so peak memory is
    bounded by the largest chunk regardless of trace length. *)

val magic : string
(** The 4 bytes a binary trace file starts with. *)

val format_version : int
(** Bump whenever the chunk framing or any record's byte meaning
    changes; readers reject other versions instead of misdecoding. *)

val default_chunk_bytes : int
(** Target chunk payload size (chunks end on record boundaries, so a
    chunk can exceed this by at most one record). *)

type record =
  | Req of Request.t
  | Hint of Hint.t
  | Faults of Dp_faults.Fault_model.t

type error = {
  file : string;
  offset : int;  (** byte offset of the offending structure *)
  msg : string;
}

val pp_error : Format.formatter -> error -> unit
(** Rendered as [file:offset: message]. *)

val error_to_string : error -> string

val to_load_error : error -> Request.load_error
(** The {!Request.load_error} twin: the [line] field carries the byte
    offset (text positions and binary offsets share the [file:pos:]
    diagnostic shape). *)

val quantize : Request.t -> Request.t
(** Round [arrival_ms]/[think_ms] to the exact floats the text format's
    [%.3f] rendering parses back — what a text round-trip of the request
    would produce.  Quantized requests always take the codec's compact
    timestamp path. *)

val quantize_hint : Hint.t -> Hint.t
(** Likewise for a hint's [at_ms] (and a pre-spin-up lead). *)

val encode :
  ?chunk_bytes:int ->
  ?rounds:int ->
  ?hints:Hint.t list ->
  ?faults:Dp_faults.Fault_model.t ->
  Request.t list ->
  string
(** Requests (then hints, then the fault window) as one binary trace.
    [rounds] is pipeline metadata (the reuse scheduler's round count)
    carried in the header — absent in CLI-written files. *)

val save :
  ?chunk_bytes:int ->
  ?hints:Hint.t list ->
  ?faults:Dp_faults.Fault_model.t ->
  string ->
  Request.t list ->
  unit
(** Streaming writer: chunks are flushed to the file as they fill. *)

val decode :
  ?file:string ->
  string ->
  (Request.t list * Hint.t list * Dp_faults.Fault_model.t option * int option, error) result
(** Whole-buffer decode (requests and hints in encoded order, plus the
    fault window and header [rounds] metadata).  Any framing violation —
    bad magic, version skew, truncated or checksum-failing chunk,
    trailing bytes, record-count mismatch — reports the byte offset of
    the offending structure. *)

val fold_path :
  string -> init:'a -> f:('a -> record -> 'a) -> ('a * int option, error) result
(** Streaming fold over a binary trace file: records are decoded chunk
    by chunk into a reused buffer and handed to [f] one at a time, so
    peak memory is bounded by the largest chunk — a 100x-scale trace
    folds in constant space.  Returns the fold result and the header's
    [rounds] metadata. *)

val sniff : string -> bool
(** Does this file start with {!magic}?  [false] on any read error. *)

val load_bin :
  string ->
  (Request.t list * Hint.t list * Dp_faults.Fault_model.t option * int option, error) result
(** {!fold_path} collecting into lists. *)

val load_result :
  string ->
  (Request.t list * Hint.t list * Dp_faults.Fault_model.t option, Request.load_error) result
(** Format-sniffing loader: binary traces (by {!magic}) decode through
    the streaming reader, anything else parses as the text format via
    {!Request.load_result}.  Binary framing errors surface with the
    byte offset in the [line] field (see {!to_load_error}). *)
