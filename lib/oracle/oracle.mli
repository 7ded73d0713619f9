module Disk_model = Dp_disksim.Disk_model
module Engine = Dp_disksim.Engine
module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
module Hint = Dp_trace.Hint

(** Offline-optimal disk power scheduling.

    Given the complete per-disk request timeline — which the compiler
    knows statically after disk-reuse restructuring — compute the
    energy-optimal sequence of power states over every idle gap, and the
    resulting energy lower bound.  The bound quantifies how much energy
    the reactive TPM/DRPM policies leave on the table: every online
    policy run through {!Engine.replay} consumes at least this much.

    The optimization is a dynamic program over per-gap power-state
    trajectories built from three transition families: stay powered-up
    idle, spin down to standby and back up, or dip to a reduced rotation
    speed (and, on the busy side, serve at a reduced speed).  Because a
    disk must be at serving speed at every interior gap boundary, the DP
    over the gap sequence decouples into independent per-gap
    subproblems; {!best_gap} solves one exactly over the discrete RPM
    ladder of the model, and {!schedule} strings the solutions into a
    plan. *)

type space =
  | Tpm_space  (** states of a two-mode disk: full-speed idle or standby *)
  | Drpm_space  (** states of a multi-speed disk: any RPM level *)
  | Full_space  (** both mechanisms available *)

val space_name : space -> string

val space_of_name : string -> space option
(** CLI policy-name spellings: ["oracle-tpm"], ["oracle-drpm"],
    ["oracle"] (both mechanisms); anything else is [None]. *)

type gap = {
  start_ms : float;
  len_ms : float;
  terminal : bool;
      (** no later request: the disk need not return to full speed *)
}

type action =
  | Stay_idle  (** idle at full speed for the whole gap *)
  | Spin_cycle  (** spin down, standby, spin back up (unless terminal) *)
  | Rpm_dip of int
      (** ramp down to this RPM, dwell, ramp back up (unless terminal) *)

type step = { gap : gap; action : action; energy_j : float }

type plan = { steps : step list; energy_j : float }

val best_gap : ?model:Disk_model.t -> space -> gap -> action * float
(** The optimal trajectory for one gap and its energy in joules:
    the exact minimum over the space's admissible trajectories.  A gap
    too short for any transition round trip degrades to [Stay_idle]. *)

val schedule : ?model:Disk_model.t -> space -> gap list -> plan
(** [Oracle.schedule]: the optimal per-gap plan for one disk. *)

(** {1 The energy lower bound} *)

type bound = {
  space : space;
  energy_j : float;  (** busy_j +. gap_j *)
  busy_j : float;
      (** servicing floor: in [Drpm_space]/[Full_space] each request is
          charged at its cheapest serving speed (energy, not time,
          minimized); in [Tpm_space] at full speed, as TPM serves.  A
          request's charge depends only on its seek class
          ({!Disk_model.seek_class}) and size, so each (class, size) is
          priced once per bound and looked up after that *)
  gap_j : float;
      (** sum of per-gap energy floors.  In [Tpm_space] this is exactly
          the plan energy (two-mode trajectories are boundary-pinned, so
          the executable DP is the floor); with DRPM transitions in play
          the floor drops the ramp charges and boundary pinning — a
          multi-speed disk can cross gap boundaries at reduced speed,
          and closed-loop drift can stretch the realized timeline — so
          [gap_j <=] the sum of [per_disk] plan energies *)
  per_disk : plan array;
      (** the executable per-gap schedules from {!schedule} — what a
          compiler-directed policy can actually run, with real ramp and
          spin costs; their energy upper-bounds [gap_j] *)
  base : Engine.result;
      (** the no-PM reference run whose [Active] spans define the gaps *)
}

(** The bound is computed in two steps.  {!reference} is the part that
    depends only on the trace: one no-PM run of the engine and the idle
    gaps between its [Active] spans.  {!bound}
    then plans the gaps and floors the service for one transition
    space.  The three spaces share one reference, so a matrix with
    several oracle rows over the same trace replays the trace once. *)

type reference = private {
  model : Disk_model.t;
  disks : int;
  requests : Trace.t;  (** the trace *)
  base : Engine.result;  (** the no-PM run *)
  gaps : gap list array;
      (** per-disk idle gaps of [base]: the complement of its [Active]
          spans within [0, makespan]; a disk's last gap is terminal when
          it runs to the makespan *)
}

val reference : ?model:Disk_model.t -> disks:int -> Trace.t -> reference
(** Replay the trace once without power management to fix its
    busy/idle structure.  A stream sink folds the gaps from the run's
    {!Dp_obs.Event.Power} [Active] spans as the engine emits them, so
    no timeline is kept.  A trace the engine rejects raises
    [Invalid_argument], as in {!Engine.replay}. *)

val bound : space:space -> reference -> bound
(** Bound every policy of [space] from below on the reference's trace:
    optimal gap plans plus the cheapest admissible service energy.  The
    [space] selects the [Oracle-TPM] / [Oracle-DRPM] rows of the
    experiments matrix.  The reference is only read, so one serves any
    number of calls. *)

val lower_bound :
  ?model:Disk_model.t -> ?space:space -> disks:int -> Request.t list -> bound
(** [bound ~space (reference ?model ~disks (Trace.of_list reqs))],
    [space] defaulting to [Full_space]: a list adapter kept for the
    benchmark's traced pass until it runs the CLI's own entry points. *)

val standby_floor_j : ?model:Disk_model.t -> Engine.result -> float
(** The analytic floor no schedule can beat: every disk draws at least
    standby power over the whole makespan.  Sandwiches the oracle:
    [standby_floor_j base <= (bound ~space r).energy_j <= (replay p trace).energy_j]. *)

(** {1 Compiler-directed hints}

    The hint emitter is the compile-time half of the pipeline: it runs
    the same per-gap planner over the {e nominal} (full-speed) timeline
    that restructuring makes statically predictable, and emits the
    directive stream ({!Hint.t}) that {!Engine.replay} executes —
    [Spin_down] / [Pre_spin_up] pairs where a spin cycle pays off,
    [Set_rpm] targets where a speed dip does. *)

val hints :
  ?model:Disk_model.t -> ?space:space -> ?by_proc:bool -> disks:int -> Trace.t -> Hint.t list
(** Hints sorted by nominal time.  [space] selects the mechanism the
    hints drive (default [Full_space]: emit for both; the engine's
    policy consumes the kind it understands and ignores the other).
    With [by_proc] (default [false]) each processor's requests are
    planned as a trace of their own, as each tenant's compiler would
    plan its stream: its own disk timelines and its own makespan; the
    per-processor streams are then merged by a stable sort in
    processor order.
    The gap prediction reads the trace's arrivals, so the trace must
    carry nominal arrivals: the instants the engine issues each request
    under [No_pm], which generator traces carry.  A hand-built trace
    usually carries zeros, which hide every gap; stamp it with the
    [arrival_ms] of the [Service] events of a [No_pm] run first, and
    feed the stamped trace to the engine too, since hint routing
    matches on the same field. *)

val hints_of_trace :
  ?model:Disk_model.t -> ?space:space -> disks:int -> Request.t list -> Hint.t list
(** {!hints} of [Trace.of_list reqs]: a list adapter kept for the
    benchmark's traced pass until it runs the CLI's own entry points. *)

val pp_bound : Format.formatter -> bound -> unit
