(* dpsim — trace-driven disk power simulator.

   Replays a trace file (as produced by [dpcc trace -o ...] — the text
   line format or the binary codec, sniffed by magic bytes) against a
   disk configuration and power-management policy, and reports energy and
   performance statistics.  Compiler power hints embedded in the trace
   ([H ...] lines, from [dpcc trace --hints]) are executed by the
   proactive policies; an [F seed:rate:classes] line (or the --faults
   flag, which takes precedence) arms the deterministic fault injector;
   the oracle policies print the offline-optimal energy bound instead of
   simulating. *)

module Request = Dp_trace.Request
module Hint = Dp_trace.Hint
module Bin = Dp_trace.Bin
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Disk_model = Dp_disksim.Disk_model
module Knobs = Dp_disksim.Knobs
module Fault_model = Dp_faults.Fault_model
module Oracle = Dp_oracle.Oracle

open Cmdliner

(* Malformed input (trace, hint or fault lines, bad flag values) is a
   usage-class failure: one-line diagnostic, exit 2 — same code as
   cmdliner's own CLI errors. *)
let usage_error fmt = Format.kasprintf (fun s -> Format.eprintf "dpsim: %s@." s; exit 2) fmt

(* Observability modes: a recorder for the engine's event stream, and
   what to make of it once the run's report is printed. *)
let obs_recorder mode out disks =
  match mode with
  | None -> (Dp_obs.Sink.null, fun _ -> ())
  | Some "gaps" ->
      let sink, finish = Dp_obs.Report.recorder ~disks in
      ( sink,
        fun _ ->
          let reports = finish () in
          Format.printf "%a@." Dp_obs.Report.pp reports;
          match out with
          | None -> ()
          | Some path ->
              Dp_util.Fsx.atomic_write path (Dp_obs.Report.jsonl reports);
              Format.printf "observability: gap histograms written to %s@." path )
  | Some "trace" ->
      let sink, events = Dp_obs.Sink.collect () in
      ( sink,
        fun r ->
          let path = Option.value out ~default:"obs-trace.json" in
          Dp_obs.Chrome.write ~until_ms:r.Engine.makespan_ms path (events ());
          Format.printf "observability: Chrome trace written to %s (load in about:tracing)@."
            path )
  | Some "events" ->
      (* Streamed to a temp file and renamed into place on close, so an
         interrupted run never leaves a half-written event log under the
         published name. *)
      let path = Option.value out ~default:"obs-events.jsonl" in
      let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
      let oc = open_out tmp in
      ( Dp_obs.Sink.stream (fun e ->
            output_string oc (Dp_util.Json.to_compact (Dp_obs.Event.to_json e));
            output_char oc '\n'),
        fun _ ->
          close_out oc;
          Sys.rename tmp path;
          Format.printf "observability: event log written to %s@." path )
  | Some m -> usage_error "unknown --obs mode %s (expected gaps | trace | events)" m

let run trace_file out disks policy_name threshold proactive window downshift faults_spec
    scrub_ms spare deadline shards per_disk obs_mode live =
  (* The one loader: the file is read once; binary traces (by
     magic) decode, anything else parses as text.  Binary framing errors
     carry the byte offset in the line field. *)
  let reqs, hints, trace_faults =
    match Bin.load_result trace_file with
    | Ok (reqs, hints, faults, _) -> (reqs, hints, faults)
    | Error e -> usage_error "%s" (Request.load_error_to_string e)
  in
  if disks < 1 then usage_error "--disks must be at least 1 (got %d)" disks;
  let top_disk =
    List.fold_left (fun m (h : Hint.t) -> max m h.Hint.disk)
      (List.fold_left (fun m (r : Request.t) -> max m r.Request.disk) (-1) reqs)
      hints
  in
  if top_disk >= disks then
    usage_error "%s touches disk %d: --disks %d is too few (pass --disks %d or more)"
      trace_file top_disk disks (top_disk + 1);
  if shards < 1 then usage_error "--shards must be at least 1 (got %d)" shards;
  if live && shards > 1 then
    usage_error
      "--live needs the event stream as it happens; --shards %d would deliver it in \
       per-segment batches"
      shards;
  let faults =
    match faults_spec with
    | None -> trace_faults
    | Some spec -> (
        match Fault_model.of_spec spec with
        | Ok f -> Some f
        | Error msg -> usage_error "--faults: %s" msg)
  in
  let knobs =
    match Knobs.make ?faults ~scrub_ms ?spare ?deadline_ms:deadline () with
    | Ok k -> k
    | Error msg -> usage_error "%s" msg
  in
  (* The policy constructors refuse out-of-range tunables; build once
     per flag so the diagnostic names the flag that set the value. *)
  let tunable flag build =
    try build () with Invalid_argument msg -> usage_error "%s: %s" flag msg
  in
  try
    match Oracle.space_of_name policy_name with
    | Some space ->
        if obs_mode <> None || live then
          usage_error
            "%s needs a simulated run; the oracle policies compute an analytic bound"
            (if live then "--live" else "--obs");
        let bound = Oracle.lower_bound ~space ~disks reqs in
        Format.printf "trace: %s (%d requests)@." trace_file (List.length reqs);
        Format.printf "model: %s@." Disk_model.ultrastar_36z15.Disk_model.name;
        Format.printf "%a@." Oracle.pp_bound bound;
        Format.printf "analytic standby floor: %.1f J@."
          (Oracle.standby_floor_j bound.Oracle.base)
    | None ->
        let policy =
          match policy_name with
          | "none" | "base" -> Policy.No_pm
          | "tpm" ->
              tunable "--tpm-threshold" (fun () ->
                  Policy.tpm ?idle_threshold_s:threshold ~proactive ())
          | "drpm" ->
              ignore (tunable "--drpm-window" (fun () -> Policy.drpm ?window_size:window ()));
              tunable "--drpm-downshift-ms" (fun () ->
                  Policy.drpm ?window_size:window ?downshift_idle_ms:downshift ~proactive ())
          | "online" -> Policy.default_adaptive
          | p -> usage_error "unknown policy %s" p
        in
        let obs_sink, obs_finish = obs_recorder obs_mode out disks in
        let live_sink, live_finish =
          if not live then (Dp_obs.Sink.null, fun () -> ())
          else
            let mode =
              if Unix.isatty Unix.stdout then Dp_obs.Tty.Ansi else Dp_obs.Tty.Plain
            in
            Dp_obs.Tty.driver ~mode ~out:print_string (Dp_obs.Live.create ~disks ())
        in
        let r =
          Engine.simulate ~obs:(Dp_obs.Sink.tee [ obs_sink; live_sink ]) ~hints ~knobs ~shards
            ~disks policy reqs
        in
        live_finish ();
        Format.printf "trace: %s (%d requests, %d hints)@." trace_file (List.length reqs)
          (List.length hints);
        Format.printf "model: %s@." Disk_model.ultrastar_36z15.Disk_model.name;
        if obs_mode <> None then
          Format.printf "policy: %s@." (Policy.describe policy);
        (match faults with
        | Some f -> Format.printf "%a@." Fault_model.pp f
        | None -> ());
        Format.printf "%a@." Engine.pp_result r;
        if per_disk then
          Array.iter (fun d -> Format.printf "%a@." Engine.pp_disk_stats d) r.Engine.per_disk;
        obs_finish r
  with
  | Sys_error msg | Failure msg ->
      Format.eprintf "dpsim: %s@." msg;
      exit 1
  | Invalid_argument msg ->
      Format.eprintf "dpsim: %s@." msg;
      exit 1

let () =
  let trace_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file")
  in
  let out_file =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"OUT"
          ~doc:
            "Output file for --obs artifacts (default: obs-trace.json for trace, \
             obs-events.jsonl for events; gaps prints to stdout and writes JSONL here \
             only when given)")
  in
  let disks =
    Arg.(value & opt int 8 & info [ "disks"; "d" ] ~docv:"N" ~doc:"Number of I/O nodes")
  in
  let policy =
    Arg.(
      value & opt string "none"
      & info [ "policy" ] ~docv:"P"
          ~doc:"none | tpm | drpm | online | oracle-tpm | oracle-drpm | oracle")
  in
  let threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "tpm-threshold" ] ~docv:"SECONDS" ~doc:"TPM idleness threshold")
  in
  let proactive =
    Arg.(
      value & flag
      & info [ "proactive" ]
          ~doc:
            "Compiler-directed mode for tpm/drpm: execute the trace's hint stream (or, \
             absent hints, plan gaps from the known schedule)")
  in
  let window =
    Arg.(value & opt (some int) None & info [ "drpm-window" ] ~docv:"N" ~doc:"DRPM window size")
  in
  let downshift =
    Arg.(
      value
      & opt (some float) None
      & info [ "drpm-downshift-ms" ] ~docv:"MS" ~doc:"Idle time per DRPM level decrease")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SEED:RATE:CLASSES"
          ~doc:
            "Arm the deterministic fault injector, e.g. 42:0.01:all or 7:0.05:sm \
             (s spin-up, m media, l latency spike, r stuck RPM, d media decay).  Overrides the \
             trace's F line.")
  in
  let scrub =
    Arg.(
      value & opt float 0.0
      & info [ "scrub-ms" ] ~docv:"MS"
          ~doc:
            "Background-scrub budget per idle gap (verification reads, preempted by \
             foreground arrivals); 0 disables scrubbing")
  in
  let spare =
    Arg.(
      value
      & opt (some int) None
      & info [ "spare" ] ~docv:"BLOCKS" ~doc:"Per-disk spare-pool size override")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Per-request deadline: media-error retry storms that blow it fail over to \
             the disk's mirror; misses are reported as deadline events")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Fan the run across up to N domains, never more than the host's recommended \
             domain count (per-segment connected components of the \
             processor-disk interaction graph, rejoining at each segment barrier); \
             results are byte-identical to --shards 1.  Refuses --live.")
  in
  let per_disk = Arg.(value & flag & info [ "per-disk" ] ~doc:"Print per-disk statistics") in
  let obs =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs" ] ~docv:"MODE"
          ~doc:
            "Observe the run: gaps (per-disk idle-gap / response-time / standby-residency \
             histograms, JSONL to OUT when given), trace (Chrome trace_event JSON to OUT, \
             one track per disk), or events (stream every event as JSONL to OUT)")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Render a live per-disk console while simulating (power state, residency, \
             arrival rate, response percentiles, energy, fault counters, power-state \
             track).  ANSI repaint on a tty, plain periodic text otherwise.  Composes \
             with --obs; refuses the oracle policies.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "dpsim" ~version:"1.0.0" ~doc:"Trace-driven multi-disk power simulator")
      Term.(
        const run $ trace_file $ out_file $ disks $ policy $ threshold $ proactive $ window
        $ downshift $ faults $ scrub $ spare $ deadline $ shards $ per_disk $ obs $ live)
  in
  exit (Cmd.eval ~term_err:2 cmd)
