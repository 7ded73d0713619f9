(** Terminal rendering of a {!Live} aggregator — the operator console
    behind [dpsim --live] and [dpcc serve --live].

    No dependencies beyond ANSI escape sequences: in {!Ansi} mode each
    frame homes the cursor and repaints in place (one row per disk plus
    a header, each line clearing its tail), so the console looks like a
    dashboard; in {!Plain} mode each frame is an ordinary text block
    with a timestamp header — what you get when stdout is not a tty or
    the frames are being captured into a buffer.

    Frames are pure functions of the {!Live} state, which is itself a
    pure function of the event stream in simulated time — so the byte
    stream a driver produces is identical across [--jobs] settings,
    machines and replays.  Nothing here reads a clock. *)

type mode = Ansi | Plain

val frame : mode:mode -> Live.t -> string
(** Render one frame of the current state: a header line (simulated
    time, epoch count, events folded) and one fixed-width row per disk
    — power state, residency, EWMA arrival rate, sliding-window
    p50/p95 response, energy so far, request and fault/repair/deadline
    counters, and the power-state sparkline track ({!Live.track_chars}
    bytes: ['A'] active, ['i'] idle, ['.'] standby, ['~'] transition). *)

val driver : ?mode:mode -> out:(string -> unit) -> Live.t -> Sink.t * (unit -> unit)
(** [driver ?mode ~out live] is a recorder: its sink folds each event
    into [live] and hands [out] one frame each time
    {!Live.epochs_completed} advances (a single frame however many
    epochs the event skipped); the finisher emits one final frame for
    the trailing partial epoch.  {!Sink.tee} it with the run's other
    recorders.  [mode] defaults to {!Plain}. *)
