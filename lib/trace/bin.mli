(** Binary trace codec: the compact twin of the text trace format.

    A binary trace carries exactly what a text trace carries — requests,
    compiler hints and an optional fault window — framed for scale
    instead of for humans:

    - a 4-byte magic ({!magic}) plus a format version byte, so readers
      can tell the format and a version bump orphans old files instead
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

    A trace is encoded into one string and decoded from one string:
    every caller (the CLIs, [dpcc convert], the stage cache) holds the
    whole trace in memory anyway, so a trace file is read and written
    whole.  The decoder walks the string with one cursor and checks each
    chunk's checksum in place, copying no chunk, and writes each request
    straight into the columns of a {!Trace.t}: it builds no
    {!Request.t} and no list of them. *)

val magic : string
(** The 4 bytes a binary trace file starts with. *)

val format_version : int
(** Bump whenever the chunk framing or any record's byte meaning
    changes; readers reject other versions instead of misdecoding. *)

type error = {
  file : string;
  offset : int;  (** byte offset of the offending structure *)
  msg : string;
}

val error_to_string : error -> string
(** Rendered as [file:offset: message]. *)

val quantize : Trace.t -> Trace.t
(** Round every arrival and think time to the exact float the text
    format's [%.3f] rendering parses back — what a text round-trip of
    the trace would produce ({!Trace.map_times}).  Quantized requests
    always take the codec's compact timestamp path. *)

val quantize_hint : Hint.t -> Hint.t
(** Likewise for a hint's [at_ms] (and a pre-spin-up lead). *)

val encode :
  ?chunk_bytes:int ->
  ?rounds:int ->
  ?hints:Hint.t list ->
  ?faults:Dp_faults.Fault_model.t ->
  Trace.t ->
  string
(** The trace's requests in order (then hints, then the fault window) as
    one binary trace.
    [chunk_bytes] (default 64 KiB) is the target chunk payload size;
    chunks end on record boundaries, so one can exceed it by a record.
    [rounds] is pipeline metadata (the reuse scheduler's round count)
    carried in the header — absent in CLI-written files. *)

val save :
  ?hints:Hint.t list -> ?faults:Dp_faults.Fault_model.t -> string -> Trace.t -> unit
(** Writes {!encode}'s string to a file. *)

val decode :
  ?file:string ->
  ?verified:bool ->
  string ->
  (Trace.t * Hint.t list * Dp_faults.Fault_model.t option * int option, error) result
(** The requests as a trace, hints in encoded order, the fault window and
    the header's [rounds] metadata.  The trace is sized from the
    trailer's record count and filled in place; requests encoded out of
    {!Request.compare_arrival} order are sorted ({!Trace.Builder.finish}),
    which a trace this codec wrote never needs.  Any framing violation — bad magic,
    version skew, truncated or checksum-failing chunk, trailing bytes,
    record-count mismatch — and any malformed record reports the byte
    offset of the offending structure, under [file] (default
    ["<buffer>"]).  [verified] (default [false]) says the caller has
    already checked the whole input against a checksum of its own, as
    the stage store checks its frames: the chunks' checksums are then
    not computed again, and every other check still runs. *)

val load_result :
  string ->
  ( Trace.t * Hint.t list * Dp_faults.Fault_model.t option * [ `Text | `Bin ],
    Request.load_error )
  result
(** The one trace-file loader.  It reads the file once; contents that
    start with {!magic} go to {!decode}, anything else to the text
    parser {!Request.of_string}, whose requests become a trace
    ({!Trace.of_list}).  The last component names the format
    it dispatched on, so a caller never reads the file again to learn it
    (a pipe cannot be read twice).  A binary diagnostic carries its byte
    offset in the [line] field (text positions and binary offsets share
    the [file:pos: message] shape); a file that cannot be read reports
    the system error at position 0. *)
