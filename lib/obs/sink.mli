(** Event recorders.

    The sink contract:

    - {!null} is the default everywhere.  [enabled null = false], and
      every producer must guard event {e construction} (not just
      emission) on {!enabled} — with the null sink installed the
      engine's hot loop allocates nothing for observability (the
      [obs-overhead] bench section enforces this).
    - {!ring} keeps the last [capacity] events in a fixed circular
      buffer; older events are overwritten and counted in {!dropped}.
      This is the in-memory recorder reports are built from.
    - {!stream} hands every event to a callback as it happens — the
      streaming JSONL writer is [stream (fun e -> output_string oc
      (Json.to_compact (Event.to_json e) ^ "\n"))].  Stream sinks retain {e nothing}:
      {!events} and {!length} are always empty/zero for them (see
      below).

    Sinks are single-threaded, like the simulator. *)

type t

(** What a sink does with the events it is handed — use {!kind} to
    detect a non-recording sink instead of misreading {!events}'s
    empty list as "no events happened". *)
type kind =
  | Null  (** discards everything; producers skip construction *)
  | Ring  (** records the last [capacity] events *)
  | Stream  (** hands events to a callback, retains nothing *)

val null : t

val ring : ?capacity:int -> unit -> t
(** A bounded circular recorder (default capacity 65536 events). *)

val stream : (Event.t -> unit) -> t

val kind : t -> kind

val enabled : t -> bool
(** [false] only for {!null}.  Producers must not construct an event
    when this is [false]. *)

val emit : t -> Event.t -> unit
(** No-op on {!null}. *)

val events : t -> Event.t list
(** Recorded events, oldest first.  {b Only {!Ring} sinks record}: the
    result is always [[]] for {!Null} {e and} {!Stream} sinks — an
    empty list from a stream sink does not mean nothing was emitted.
    Check {!kind} before interpreting it. *)

val length : t -> int
(** Events currently held.  Like {!events}, this is about {e
    retention}: 0 for {!Null} and for {!Stream} sinks regardless of
    how many events passed through the callback. *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)
