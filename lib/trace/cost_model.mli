(** Nominal timing used when {e generating} traces: the per-iteration CPU
    cost (cycle annotations at the host clock rate, Section 7.1's SUN
    Blade1000 at 750 MHz) and the full-speed service time of a request,
    used to space arrivals as a synchronous-I/O execution would.

    The power simulator has its own (richer) service model; this one only
    fixes arrival times, exactly like the paper's trace generator. *)

type t = {
  cpu_hz : float;
  seek_ms : float;
  rotation_ms : float;  (** average rotational latency *)
  transfer_mb_s : float;
}

val default : t
(** 750 MHz CPU; IBM Ultrastar 36Z15: 3.4 ms seek, 2 ms rotation,
    55 MB/s transfer. *)

val compute_ms : t -> cycles:int -> float

val service_ms : seek_distance:int -> t -> bytes:int -> float
(** Full-speed service time; the seek cost depends on the byte distance
    from the previous request on the same disk (0 = sequential, short
    hops 40% of the average seek, [max_int] a full seek: the first
    request on a disk). *)
