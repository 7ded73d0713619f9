module App = Dp_workloads.App
module Engine = Dp_disksim.Engine
module Generate = Dp_trace.Generate
module Oracle = Dp_oracle.Oracle
module Pipeline = Dp_pipeline.Pipeline

type ctx = Pipeline.t

let context = Pipeline.of_app

type run = {
  version : Version.t;
  procs : int;
  result : Engine.result;
  summary : Generate.summary;
  scheduler_rounds : int option;
  obs : Dp_obs.Report.disk_report array option;
}

let run ctx ?knobs ?(obs = false) ~procs version =
  match Version.oracle_space version with
  | Some space ->
      (* Offline-optimal bound on the unmodified code: same trace as the
         corresponding reactive row, energy replaced by the oracle DP.
         The oracle rows share one no-PM reference run of that trace,
         which is not observed — [obs] is ignored for these rows. *)
      let bound = Oracle.bound ~space (Pipeline.reference ctx ~procs Pipeline.Original) in
      let result =
        {
          bound.Oracle.base with
          Engine.policy = Version.name version;
          energy_j = bound.Oracle.energy_j;
        }
      in
      {
        version;
        procs;
        result;
        summary = Pipeline.summary ctx ~procs Pipeline.Original;
        scheduler_rounds = None;
        obs = None;
      }
  | None ->
      let mode = Version.mode version in
      let sink, report =
        if obs then
          let sink, finish = Dp_obs.Report.recorder ~disks:(Pipeline.disks ctx) in
          (sink, fun () -> Some (finish ()))
        else (Dp_obs.Sink.null, fun () -> None)
      in
      let policy = Version.policy version in
      let result =
        (* A clean, unobserved Base row is the no-PM run of the unmodified
           trace that the reference already makes, so a report replays
           each trace under No-PM once. *)
        if version = Version.Base && knobs = None && not obs then
          (Pipeline.reference ctx ~procs Pipeline.Original).Oracle.base
        else Pipeline.simulate ~obs:sink ?knobs ctx ~procs ~policy mode
      in
      {
        version;
        procs;
        result;
        summary = Pipeline.summary ctx ~procs mode;
        scheduler_rounds = Pipeline.rounds ctx ~procs mode;
        obs = report ();
      }

let normalized_energy ~base r =
  r.result.Engine.energy_j /. base.result.Engine.energy_j

let perf_degradation ~base r =
  (r.result.Engine.io_time_ms -. base.result.Engine.io_time_ms)
  /. base.result.Engine.io_time_ms
