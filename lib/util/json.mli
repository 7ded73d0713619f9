(** The one JSON codec: a value type, a printer and a parser.

    Every JSON artifact the tools write goes through {!pp} or
    {!to_compact}, and every artifact they read back goes through
    {!of_string}.

    Two layouts:
    - {b pretty} ({!pp}, {!to_string}): hv boxes with ["k": v]
      spacing, breaking at [Format]'s default margin — the [--json]
      reports (matrix, sweep, serve, chaos, cache stat);
    - {b compact} ({!to_compact}): no whitespace at all — one record per
      line in the JSONL artifacts (obs events, gap histograms), the
      [obs diff --json] object and each Chrome trace event.

    Two float modes:
    - [Readable]: [%.6g] — what people read and what the golden
      artifacts pin;
    - [Exact]: [%.17g] — injective on finite doubles, so byte-equal
      output means bit-equal floats ([-0] and [0] stay distinct).  The
      chaos oracle's run artifacts and the Chrome trace timestamps use
      it.

    In both modes non-finite floats render as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

type floats = Readable | Exact

val pp : ?floats:floats -> Format.formatter -> t -> unit
(** The pretty layout through [Format] boxes, for printing into a
    formatter; [floats] defaults to [Readable]. *)

val to_string : ?floats:floats -> t -> string
(** The text [Format.asprintf "%a" (pp ?floats)] gives (margin 78,
    maximum indentation 68, no trailing newline), written into one
    [Buffer] without [Format]: one pass writes the one-line text and
    notes where each box and break is, a second lays the boxes out by
    the rules [Format] applies to them.  A property in the test suite
    checks the two against each other. *)

val to_compact : ?floats:floats -> t -> string
(** The compact layout (no whitespace, no trailing newline). *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed).  Integer
    literals that fit an [int] become [Int] ([-0] excepted, which stays
    the float it denotes); every other number becomes [Float].  [\u]
    escapes decode to UTF-8; surrogates are rejected.  Errors read
    ["MESSAGE at offset N"]. *)
