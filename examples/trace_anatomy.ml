(* Trace anatomy: what restructuring does to per-disk idle periods.

   Generates the AST workload's trace in original and restructured order
   (two modes of the same pipeline context — the dependence graph is
   built once), saves/reloads the restructured one through the text
   format, and prints a per-disk idle-gap histogram for both — the
   quantity every power policy feeds on ("most prior techniques become
   more effective with long disk idle periods", Section 1).

   Run with: dune exec examples/trace_anatomy.exe *)

module App = Dp_workloads.App
module Request = Dp_trace.Request
module Runner = Dp_harness.Runner
module Pipeline = Dp_pipeline.Pipeline

let print_histogram label reqs =
  let h = Dp_trace.Idle_stats.of_requests reqs in
  Format.printf "--- %s (%d gaps, %.0f s idle; %.0f s in TPM-exploitable gaps) ---@.%a@."
    label
    (Dp_trace.Idle_stats.total_gaps h)
    (Dp_trace.Idle_stats.total_mass_s h)
    (Dp_trace.Idle_stats.exploitable_mass_s h ~threshold_s:15.2)
    Dp_trace.Idle_stats.pp h

let () =
  let app = Option.get (Dp_workloads.Workloads.by_name "AST") in
  let ctx = Runner.context app in

  let base_trace = Pipeline.trace ctx ~procs:1 Pipeline.Original in
  let reuse_trace = Pipeline.trace ctx ~procs:1 Pipeline.Reuse_single in

  (* Round-trip the restructured trace through the text format. *)
  let path = Filename.temp_file "dpower_ast" ".trace" in
  Request.save path reuse_trace;
  let reloaded =
    match Dp_trace.Bin.load_result path with
    | Ok (reqs, _, _, _) -> reqs
    | Error e -> failwith (Request.load_error_to_string e)
  in
  Sys.remove path;
  assert (List.length reloaded = List.length reuse_trace);
  Format.printf "trace of %d requests round-tripped through %s format@."
    (List.length reloaded) "the text";

  Format.printf
    "@.per-disk idle gaps (the restructured order concentrates idleness into long gaps):@.";
  print_histogram "original" base_trace;
  print_histogram "restructured" reloaded;
  Format.printf
    "@.scheduler: %d rounds (the stencil's inter-step dependences bound each disk visit)@."
    (Option.value ~default:0 (Pipeline.rounds ctx ~procs:1 Pipeline.Reuse_single))
