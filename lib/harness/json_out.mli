(** JSON renderings of experiment results, for scripting against the
    harness.  The value type and printers are {!Dp_util.Json}'s. *)

type t = Dp_util.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** The pretty layout with readable ([%.6g]) floats: valid JSON,
    strings escaped, non-finite floats as null. *)

val of_matrix : Experiments.matrix -> t
(** One object per application: name, paper reference values, and per
    version the absolute and normalized energy, I/O time, makespan and
    performance degradation. *)

val of_run : Runner.run -> t
(** Includes an ["obs"] field (one {!Dp_obs.Report.to_json} object per
    disk) when the run carries an observability report; the field is
    absent otherwise. *)

val of_serve : Dp_serve.Serve.report -> t
(** The served-array report: config echo (without [jobs] — the output
    must be byte-identical across [--jobs] settings), merged request
    count, and per row the energy/makespan plus, for simulated rows, the
    attribution summary with every tenant's share and response
    percentiles. *)

val of_sweep : Experiments.sweep -> t
(** The fault sweep as one object: app, seed, and per rate the runs
    (with their reliability aggregates). *)

val pp_precise : Format.formatter -> t -> unit
(** The layout of {!to_string}, but floats render exactly ([%.17g]), so
    byte-equal output means bit-equal floats.  The rendering for
    differential artifacts (the chaos oracle's pair comparisons);
    non-finite floats still become null. *)

val to_string_precise : t -> string
