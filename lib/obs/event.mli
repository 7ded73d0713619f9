(** Typed observability events.

    Everything the simulator can report about a run flows through this
    one variant: power-state spans (the timeline), request service
    spans, compiler-hint executions, injected-fault perturbations,
    repair actions, deadline misses and policy decisions, each on one
    disk.  Events are cheap immutable records; whether any
    are constructed at all is the {!Sink}'s business — the engine guards
    every emission on {!Sink.enabled}, so a run with the null sink
    allocates nothing here. *)

type power_state =
  | Active  (** servicing a request *)
  | Idle of int  (** powered-up idle at an RPM *)
  | Standby
  | Transition  (** spin-up/down or speed change *)

type t =
  | Power of {
      disk : int;
      state : power_state;
      start_ms : float;
      stop_ms : float;  (** wall-clock span on the disk's timeline *)
      charge_ms : float;
          (** milliseconds charged to the state's statistic: the
              span's duration (0 for a zero-length lump charge), as the
              exact value the engine adds, so summing [charge_ms] per
              state reproduces the engine's per-disk stats exactly. *)
      energy_j : float;  (** energy charged to this span *)
    }
  | Service of {
      disk : int;
      proc : int;
          (** issuing processor — under {!Dp_serve} multiplexing, the
              tenant index, which is what per-tenant attribution keys on *)
      arrival_ms : float;
      start_ms : float;  (** when the head started working (spikes included) *)
      stop_ms : float;  (** completion; [stop_ms -. arrival_ms] is the response *)
      lba : int;
      bytes : int;
    }
  | Hint_exec of { disk : int; at_ms : float; action : string }
      (** a compiler directive the engine executes over its idle
          window; a directive it drops (a stuck-RPM fallback, or a
          window that closed before it opened) emits none *)
  | Fault of { disk : int; at_ms : float; kind : string; cost_ms : float }
      (** an injected perturbation and the time it cost *)
  | Decision of { disk : int; at_ms : float; decision : string }
      (** a policy choice (spin down, plan a dip, window upshift, ...) *)
  | Repair of { disk : int; at_ms : float; op : string; blocks : int; cost_ms : float }
      (** a persistent-failure recovery action ([op] is one of
          ["remap"], ["scrub"], ["scrub-pass"], ["reconstruct"],
          ["failover"], ["disk-failed"], ["rebuild"],
          ["rebuild-complete"]); [blocks] the blocks involved and
          [cost_ms] the time charged on the disk's timeline *)
  | Deadline of {
      disk : int;
      proc : int;
      at_ms : float;
      response_ms : float;
      deadline_ms : float;
    }
      (** a request completed past its deadline ([proc] is the issuing
          tenant under {!Dp_serve} multiplexing) *)

val disk : t -> int
(** The event's disk.  Every event belongs to one disk of the run, in
    [0, disks). *)

val time_ms : t -> float
(** The event's primary timestamp (span start for spans). *)

val state_name : power_state -> string
(** "active" | "idle" | "standby" | "transition". *)

val track_name : power_state -> string
(** Display label: "ACTIVE", "IDLE@<rpm>", "STANDBY", "TRANSITION". *)

val to_json : t -> Dp_util.Json.t
(** One JSON object per event; {!Dp_util.Json.to_compact} of it is one
    line of the JSONL wire format. *)
