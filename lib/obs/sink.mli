(** Event recorders.

    The sink contract:

    - A sink is one of two kinds.  {!null} is the default everywhere:
      [enabled null = false], and every producer must guard event
      {e construction} (not just emission) on {!enabled}, so with the
      null sink installed the engine's hot loop allocates nothing for
      observability (the [obs-overhead] bench section enforces this).
      {!stream} hands every event to a callback as it happens — the
      streaming JSONL writer is [stream (fun e -> output_string oc
      (Json.to_compact (Event.to_json e) ^ "\n"))].
    - Every consumer of a run is a {e recorder}: a sink to pass as the
      run's [obs] plus a finisher that closes the fold and returns its
      result, called once after the run.  {!collect},
      {!Report.recorder}, {!Tty.driver}, [Timeline.recorder],
      [Engine.recorder] and [Account.recorder] all have this shape.
    - {!tee} composes recorders: one run feeds every consumer, in list
      order, without a hand-written fan-out.

    Sinks are single-threaded, like the simulator. *)

type t

val null : t

val stream : (Event.t -> unit) -> t

val enabled : t -> bool
(** [false] only for {!null}.  Producers must not construct an event
    when this is [false]. *)

val emit : t -> Event.t -> unit
(** No-op on {!null}. *)

val tee : t list -> t
(** One sink that hands each event to every enabled member, in list
    order.  Null members are dropped: a tee of no live member is
    {!null} (so producers still skip construction), and a tee of one
    live member is that member itself. *)

val collect : unit -> t * (unit -> Event.t list)
(** A recorder that keeps every event: the finisher returns them,
    oldest first.  Memory grows with the run; the streaming consumers
    ({!Report.recorder}, the JSONL writer) keep none. *)
