(* dpcc — the disk-power compiler driver.

   Loads a program (a [.dpl] source file or a built-in workload via
   [app:NAME]), and can show the IR and its analyses, print the
   restructured code, emit an I/O trace, or run the full trace-driven
   power simulation.  Every data-producing command drives the one
   staged pipeline ({!Dp_pipeline.Pipeline}) — the same stages the
   harness matrix and the examples use. *)

module Ir = Dp_ir.Ir
module Analysis = Dp_dependence.Analysis
module Layout = Dp_layout.Layout
module Reuse = Dp_restructure.Reuse_scheduler
module Symbolic = Dp_restructure.Symbolic
module Generate = Dp_trace.Generate
module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
module Hint = Dp_trace.Hint
module Bin = Dp_trace.Bin
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Timeline = Dp_disksim.Timeline
module Fault_model = Dp_faults.Fault_model
module Oracle = Dp_oracle.Oracle
module Pipeline = Dp_pipeline.Pipeline
module Cachefs = Dp_cachefs.Cachefs
module Fsx = Dp_util.Fsx

let fail fmt = Format.kasprintf (fun s -> raise (Failure s)) fmt

(* Malformed input — source programs, trace/hint/fault lines, bad flag
   values — is a usage-class failure: one-line diagnostic, exit 2, the
   same code cmdliner uses for CLI errors.  [source] names the program a
   diagnostic about its accesses points at. *)
let with_errors ?source f =
  try f () with
  | Failure msg | Sys_error msg ->
      Format.eprintf "dpcc: %s@." msg;
      exit 2
  | Layout.Out_of_bounds { array; dim; coord; extent } ->
      Format.eprintf
        "dpcc: %s%s: subscript out of bounds: coordinate %d of dimension %d not in [0, %d)@."
        (match source with Some s -> s ^ ": " | None -> "")
        array coord dim extent;
      exit 2
  | Dp_lang.Parser.Error (loc, msg) | Dp_lang.Resolver.Error (loc, msg) ->
      Format.eprintf "dpcc: %a: %s@." Dp_lang.Srcloc.pp loc msg;
      exit 2
  | Dp_lang.Lexer.Error (loc, msg) ->
      Format.eprintf "dpcc: %a: %s@." Dp_lang.Srcloc.pp loc msg;
      exit 2
  | Symbolic.Unsupported msg ->
      Format.eprintf "dpcc: symbolic restructuring unsupported: %s@." msg;
      exit 1

let faults_of_spec = function
  | None -> None
  | Some spec -> (
      match Fault_model.of_spec spec with
      | Ok f -> Some f
      | Error msg -> fail "--faults: %s" msg)

(* --mode names the restructured stream family explicitly; without it
   the historical default applies (the single-CPU algorithm at one
   processor, the layout-aware scheme otherwise).  Contradictory
   combinations are usage errors (exit 2). *)
let resolve_mode ~procs ~restructured = function
  | None ->
      if not restructured then Pipeline.Original
      else if procs = 1 then Pipeline.Reuse_single
      else Pipeline.Reuse_multi
  | Some name -> (
      if not restructured then
        fail "--mode %s requires --restructure (unmodified code has no stream family)" name;
      match Pipeline.mode_of_name name with
      | Some Pipeline.Reuse_single -> Pipeline.Reuse_single
      | Some Pipeline.Reuse_multi ->
          if procs = 1 then
            fail
              "--mode multi needs --procs > 1 (the layout-aware scheme tours per-processor \
               disk shares)"
          else Pipeline.Reuse_multi
      | Some Pipeline.Original | None -> fail "unknown --mode %s (expected single | multi)" name)

let check_jobs jobs = if jobs < 1 then fail "--jobs must be at least 1 (got %d)" jobs
let check_procs procs = if procs < 1 then fail "--procs must be at least 1 (got %d)" procs

(* Trace output format: the human text format or the binary codec.
   Binary output quantizes timestamps to the text format's 3-decimal
   precision first, so text <-> bin conversion round-trips
   byte-identically. *)
let trace_format_of_name = function
  | "text" -> `Text
  | "bin" -> `Bin
  | f -> fail "unknown --format %s (expected text | bin)" f

(* Both formats hold the trace at the text format's precision, in the
   arrival order of those values ({!Bin.quantize}): rounding can tie two
   processors' requests, and the tie breaks on the processor.  So a
   trace converts between the formats byte-identically both ways. *)
let save_trace ~format ~hints ?faults path trace =
  let trace = Bin.quantize trace in
  match format with
  | `Text -> Request.save ~hints ?faults path (Trace.to_list trace)
  | `Bin -> Bin.save ~hints:(List.map Bin.quantize_hint hints) ?faults path trace

(* Pass profiling (--profile): the compiler stages carry Dp_obs.Prof
   hooks; enabling the collector before the pipeline and printing the
   table after costs nothing when the flag is off. *)
let with_profile profile f =
  if profile then Dp_obs.Prof.enable ();
  let r = f () in
  if profile then Format.eprintf "%a" Dp_obs.Prof.pp_table ();
  r

(* --- the persistent stage cache ---

   On by default for every pipeline-driving command; --no-cache
   bypasses it, --cache-dir relocates it.  An unusable store (read-only
   directory, ENOSPC, ...) silently degrades to an uncached run — the
   cache must never turn a working invocation into a failing one. *)

let open_cache ~no_cache ~dir () =
  if no_cache then None
  else
    let dir = match dir with Some d -> d | None -> Cachefs.default_dir () in
    match Cachefs.open_store ~dir () with Ok c -> Some c | Error _ -> None

let finish_cache cache = Option.iter Cachefs.save_run_counters cache

(* Under --profile, split stage hits between memory and disk so a warm
   cache is visible in the numbers, not just the wall clock. *)
let profile_stats profile ctx =
  if profile then begin
    let s = Pipeline.stats ctx in
    Format.eprintf
      "pipeline: %d memo hit(s), %d disk hit(s), %d disk miss(es), %d corrupt eviction(s)@."
      s.Pipeline.memo_hits s.Pipeline.disk_hits s.Pipeline.disk_misses
      s.Pipeline.corrupt_evictions
  end

let profile_cache profile cache =
  if profile then
    Option.iter
      (fun c ->
        let k = Cachefs.counters c in
        Format.eprintf "cache: %d disk hit(s), %d miss(es), %d corrupt, %d dropped write(s)@."
          k.Cachefs.hits k.Cachefs.misses k.Cachefs.corrupt k.Cachefs.write_failures)
      cache

(* --- show --- *)

let show source deps profile =
  with_profile profile @@ fun () ->
  with_errors (fun () ->
      let ctx = Pipeline.load source in
      Format.printf "// %s@.%a@." (Pipeline.origin ctx) Ir.pp_program (Pipeline.program ctx);
      Format.printf "%a@." Layout.pp (Pipeline.layout ctx);
      if deps then
        List.iter
          (fun (n : Ir.nest) ->
            let ds = Analysis.nest_dependences n in
            Format.printf "nest %d: %d dependence(s)@." n.Ir.nest_id (List.length ds);
            List.iter (fun d -> Format.printf "  %a@." Analysis.pp_dep d) ds;
            match Analysis.outermost_parallel_loop n with
            | Some k -> Format.printf "  outermost parallel loop: depth %d@." k
            | None -> Format.printf "  no parallelizable loop@.")
          (Pipeline.program ctx).Ir.nests)

(* --- restructure --- *)

let restructure source symbolic profile =
  with_profile profile @@ fun () ->
  with_errors ~source (fun () ->
      let ctx = Pipeline.load source in
      let layout = Pipeline.layout ctx and program = Pipeline.program ctx in
      if symbolic then begin
        let ds = Symbolic.restructure layout program in
        Format.printf "%a@." Symbolic.pp ds
      end
      else begin
        let g = Pipeline.graph ctx and table = Pipeline.cluster_table ctx in
        let s = Reuse.schedule table g in
        Format.printf
          "restructured %d iterations in %d round(s), %d disk visit(s)@."
          (Array.length s.Reuse.order) s.Reuse.rounds (List.length s.Reuse.visits);
        Format.printf "disk switches: %d original -> %d restructured@."
          (Reuse.disk_switches table (Dp_dependence.Concrete.original_order g))
          (Reuse.disk_switches table s.Reuse.order);
        List.iter
          (fun (d, n) -> Format.printf "  visit disk %d: %d iterations@." d n)
          s.Reuse.visits
      end)

(* --- trace --- *)

let trace source output procs restructured mode_name gaps with_hints faults_spec
    format_name cache_dir no_cache profile =
  with_profile profile @@ fun () ->
  with_errors ~source (fun () ->
      check_procs procs;
      let format = trace_format_of_name format_name in
      if format = `Bin && output = None then
        fail "--format bin needs -o FILE (binary traces are not written to a terminal)";
      let cache = open_cache ~no_cache ~dir:cache_dir () in
      let ctx = Pipeline.load ?cache source in
      let mode = resolve_mode ~procs ~restructured mode_name in
      let trace = Pipeline.columns ctx ~procs mode in
      let hints = if with_hints then Oracle.hints ~disks:(Pipeline.disks ctx) trace else [] in
      let faults = faults_of_spec faults_spec in
      (match output with
      | Some path -> save_trace ~format ~hints ?faults path trace
      | None when not gaps ->
          let printed = Bin.quantize trace in
          for i = 0 to Trace.length printed - 1 do
            Format.printf "%a@." Request.pp (Trace.get printed i)
          done;
          List.iter (fun h -> Format.printf "%a@." Hint.pp h) hints;
          Option.iter (fun f -> Format.printf "F %s@." (Fault_model.to_spec f)) faults
      | None -> ());
      if gaps then begin
        let h = Dp_trace.Idle_stats.of_trace trace in
        Format.printf "%a" Dp_trace.Idle_stats.pp h;
        Format.printf "TPM-exploitable idle (>= 15.2 s gaps): %.0f s@."
          (Dp_trace.Idle_stats.exploitable_mass_s h ~threshold_s:15.2)
      end;
      let s = Generate.summarize_trace trace in
      Format.eprintf "%d requests%s, %.1f MB, makespan %.1f s, io fraction %.1f%%@."
        s.Generate.requests
        (if with_hints then Printf.sprintf ", %d power hints" (List.length hints) else "")
        (float_of_int s.Generate.bytes /. 1024. /. 1024.)
        (s.Generate.makespan_ms /. 1000.)
        (100. *. Generate.io_fraction s);
      profile_stats profile ctx;
      finish_cache cache)

let policy_of_string name =
  match Policy.of_name name with
  | Some p -> p
  | None ->
      fail "unknown policy %s (%s | oracle-tpm | oracle-drpm)" name
        (String.concat " | " Policy.names)

(* --- simulate --- *)

let simulate source procs restructured mode_name policy_name per_disk timeline faults_spec
    cache_dir no_cache profile =
  with_profile profile @@ fun () ->
  with_errors ~source (fun () ->
      check_procs procs;
      let cache = open_cache ~no_cache ~dir:cache_dir () in
      let ctx = Pipeline.load ?cache source in
      let mode = resolve_mode ~procs ~restructured mode_name in
      let disks = Pipeline.disks ctx in
      (* The oracle "policies" are offline bounds, not simulated
         controllers. *)
      (match Oracle.space_of_name policy_name with
      | Some space ->
          let trace = Pipeline.columns ctx ~procs mode in
          let bound = Oracle.bound ~space (Oracle.reference ~disks trace) in
          Format.printf "%a@." Oracle.pp_bound bound;
          Format.printf "analytic standby floor: %.1f J@."
            (Oracle.standby_floor_j bound.Oracle.base)
      | None ->
          let policy = policy_of_string policy_name in
          let faults = faults_of_spec faults_spec in
          let knobs = { Dp_disksim.Knobs.none with faults } in
          let recorder = if timeline then Some (Timeline.recorder ~disks ()) else None in
          let r =
            Pipeline.simulate ~knobs ?obs:(Option.map fst recorder) ctx ~procs ~policy mode
          in
          (match faults with
          | Some f -> Format.printf "%a@." Fault_model.pp f
          | None -> ());
          Format.printf "%a@." Engine.pp_result r;
          if per_disk then
            Array.iter
              (fun d -> Format.printf "%a@." Engine.pp_disk_stats d)
              r.Engine.per_disk;
          (match recorder with
          | Some (_, finish) ->
              print_string
                (Timeline.render ~model:Dp_disksim.Disk_model.ultrastar_36z15
                   ~until_ms:r.Engine.makespan_ms (finish ()))
          | None -> ());
          (* Also report against the no-PM baseline on the same trace. *)
          if policy <> Policy.No_pm then begin
            let base = Pipeline.simulate ~knobs ctx ~procs ~policy:Policy.No_pm mode in
            Format.printf "normalized energy vs no-PM on this trace: %.3f@."
              (r.Engine.energy_j /. base.Engine.energy_j)
          end);
      profile_stats profile ctx;
      finish_cache cache)

(* --- report: the version matrix for one program --- *)

let report source procs jobs json_path obs cache_dir no_cache profile =
  with_profile profile @@ fun () ->
  with_errors ~source (fun () ->
      check_jobs jobs;
      check_procs procs;
      let cache = open_cache ~no_cache ~dir:cache_dir () in
      let app = Pipeline.app (Pipeline.load source) in
      let versions =
        (if procs = 1 then Dp_harness.Version.single_cpu else Dp_harness.Version.multi_cpu)
        @ Dp_harness.Version.oracle
      in
      let matrix =
        Dp_harness.Experiments.build_matrix ~apps:[ app ] ?cache ~obs ~jobs ~procs ~versions ()
      in
      Dp_harness.Experiments.fig_energy matrix Format.std_formatter;
      Dp_harness.Experiments.fig_perf matrix Format.std_formatter;
      (match json_path with
      | Some path ->
          Fsx.atomic_write path
            (Dp_harness.Json_out.to_string (Dp_harness.Json_out.of_matrix matrix) ^ "\n")
      | None -> ());
      profile_cache profile cache;
      finish_cache cache)

(* --- fault-sweep: degradation under increasing fault rates --- *)

let fault_sweep source procs jobs seed rates classes json_path obs_jsonl cache_dir
    no_cache profile =
  with_profile profile @@ fun () ->
  with_errors ~source (fun () ->
      check_jobs jobs;
      check_procs procs;
      let cache = open_cache ~no_cache ~dir:cache_dir () in
      let app = Pipeline.app (Pipeline.load source) in
      let classes =
        match classes with
        | None -> None
        | Some s -> (
            match Fault_model.of_spec (Printf.sprintf "0:0:%s" s) with
            | Ok f -> Some f.Fault_model.classes
            | Error msg -> fail "--classes: %s" msg)
      in
      Option.iter
        (List.iter (fun r ->
             match Fault_model.check_rate r with
             | Ok () -> ()
             | Error msg -> fail "--rates: %s" msg))
        rates;
      let versions =
        if procs = 1 then Dp_harness.Version.single_cpu else Dp_harness.Version.multi_cpu
      in
      let sweep =
        Dp_harness.Experiments.fault_sweep ~seed ?rates ?cache ?classes
          ~obs:(obs_jsonl <> None) ~jobs ~procs ~versions app
      in
      Dp_harness.Experiments.fig_sweep sweep Format.std_formatter;
      (match json_path with
      | Some path ->
          Fsx.atomic_write path
            (Dp_harness.Json_out.to_string (Dp_harness.Json_out.of_sweep sweep) ^ "\n")
      | None -> ());
      (match obs_jsonl with
      | Some path ->
          (* One artifact for the whole ramp: every observed run's
             per-disk lines, concatenated in (rate, version) order —
             diff-ready input for [dpcc obs diff]. *)
          let b = Buffer.create 4096 in
          List.iter
            (fun (pt : Dp_harness.Experiments.sweep_point) ->
              List.iter
                (fun ((_ : Dp_harness.Version.t), (run : Dp_harness.Runner.run)) ->
                  match run.Dp_harness.Runner.obs with
                  | Some reports -> Buffer.add_string b (Dp_obs.Report.jsonl reports)
                  | None -> ())
                pt.Dp_harness.Experiments.runs)
            sweep.Dp_harness.Experiments.points;
          Fsx.atomic_write path (Buffer.contents b);
          Format.eprintf "observability: gap-histogram artifact written to %s@." path
      | None -> ());
      profile_cache profile cache;
      finish_cache cache)

(* --- serve: the multi-tenant server-array experiment --- *)

let serve tenants seed disks jitter_ms policy_name jobs faults_spec decay_spec
    scrub_ms spare deadline json obs_jsonl live _cache_dir _no_cache profile =
  with_profile profile @@ fun () ->
  with_errors (fun () ->
      check_jobs jobs;
      if tenants < 1 then fail "--tenants must be at least 1 (got %d)" tenants;
      if disks < 1 then fail "--disks must be at least 1 (got %d)" disks;
      if not (jitter_ms >= 0.0) then
        fail "--jitter-ms must be non-negative (got %g)" jitter_ms;
      let selection =
        match Dp_serve.Serve.selection_of_name policy_name with
        | Some s -> s
        | None -> fail "unknown --policy %s (expected all | offline | online | oracle)" policy_name
      in
      if faults_spec <> None && decay_spec <> None then
        fail "--decay cannot be combined with --faults (--decay SEED:RATE is shorthand \
              for --faults SEED:RATE:d)";
      let faults =
        match decay_spec with
        | None -> faults_of_spec faults_spec
        | Some spec -> (
            (* SEED:RATE, reusing the fault-spec field validation; the
               shape check runs first so the diagnostic never leaks the
               internal ":d" class suffix. *)
            (match String.split_on_char ':' spec with
            | [ _; _ ] -> ()
            | _ -> fail "--decay: bad decay spec %S (expected SEED:RATE)" spec);
            match Fault_model.of_spec (spec ^ ":d") with
            | Ok f -> Some f
            | Error msg -> fail "--decay: %s" msg)
      in
      let knobs =
        match Dp_disksim.Knobs.make ?faults ~scrub_ms ?spare ?deadline_ms:deadline () with
        | Ok k -> k
        | Error msg -> fail "%s" msg
      in
      let cfg =
        Dp_serve.Serve.config ~disks ~jitter_ms ~jobs ~selection ~knobs
          ~obs:(obs_jsonl <> None) ~live ~tenants ~seed ()
      in
      let report = Dp_serve.Serve.run cfg in
      (* Rows render their live frames into their own buffers during the
         fan-out; printing them here in row order keeps the byte stream
         identical across --jobs settings. *)
      if live then
        List.iter
          (fun (row : Dp_serve.Serve.row) ->
            match row.Dp_serve.Serve.frames with
            | Some frames ->
                Format.printf "== live: %s ==@." row.Dp_serve.Serve.label;
                print_string frames
            | None -> ())
          report.Dp_serve.Serve.rows;
      (match obs_jsonl with
      | Some path ->
          let b = Buffer.create 4096 in
          List.iter
            (fun (row : Dp_serve.Serve.row) ->
              match row.Dp_serve.Serve.obs with
              | Some reports -> Buffer.add_string b (Dp_obs.Report.jsonl reports)
              | None -> ())
            report.Dp_serve.Serve.rows;
          Fsx.atomic_write path (Buffer.contents b);
          Format.eprintf "observability: gap-histogram artifact written to %s@." path
      | None -> ());
      (match json with
      | Some "-" ->
          print_string (Dp_harness.Json_out.to_string (Dp_harness.Json_out.of_serve report));
          print_newline ()
      | Some path ->
          Fsx.atomic_write path
            (Dp_harness.Json_out.to_string (Dp_harness.Json_out.of_serve report) ^ "\n");
          Format.printf "%a@." Dp_serve.Serve.pp_report report
      | None -> Format.printf "%a@." Dp_serve.Serve.pp_report report))

(* --- cache: inspect / clear the persistent stage store --- *)

let resolved_cache_dir = function Some d -> d | None -> Cachefs.default_dir ()

(* Sizes rendered for humans: a store holding megabytes of traces
   should not print a nine-digit byte count. *)
let human_bytes n =
  let f = float_of_int n in
  if n < 1024 then Printf.sprintf "%d B" n
  else if f < 1024. *. 1024. then Printf.sprintf "%.1f KB" (f /. 1024.)
  else Printf.sprintf "%.1f MB" (f /. (1024. *. 1024.))

let cache_stat dir_opt json =
  with_errors (fun () ->
      let dir = resolved_cache_dir dir_opt in
      let u = Cachefs.usage ~dir in
      let counters = Cachefs.load_run_counters ~dir in
      if json then begin
        let module J = Dp_harness.Json_out in
        let last_run =
          match counters with
          | None -> J.Null
          | Some k ->
              J.Obj
                [
                  ("hits", J.Int k.Cachefs.hits);
                  ("misses", J.Int k.Cachefs.misses);
                  ("corrupt", J.Int k.Cachefs.corrupt);
                  ("dropped_writes", J.Int k.Cachefs.write_failures);
                ]
        in
        print_string
          (J.to_string
             (J.Obj
                [
                  ("dir", J.String dir);
                  ("entries", J.Int u.Cachefs.entries);
                  ("bytes", J.Int u.Cachefs.bytes);
                  ("quarantined", J.Int u.Cachefs.quarantined);
                  ("temp", J.Int u.Cachefs.temp);
                  ("last_run", last_run);
                ]));
        print_newline ()
      end
      else begin
        Format.printf "cache directory: %s@." dir;
        Format.printf "entries: %d (%s)@." u.Cachefs.entries (human_bytes u.Cachefs.bytes);
        Format.printf "quarantined: %d, leftover temp files: %d@." u.Cachefs.quarantined
          u.Cachefs.temp;
        match counters with
        | None -> Format.printf "last run: no statistics recorded@."
        | Some k ->
            Format.printf "last run: %d hit(s), %d miss(es), %d corrupt, %d dropped write(s)@."
              k.Cachefs.hits k.Cachefs.misses k.Cachefs.corrupt k.Cachefs.write_failures
      end)

let cache_clear dir_opt =
  with_errors (fun () ->
      let dir = resolved_cache_dir dir_opt in
      let removed = Cachefs.clear ~dir in
      Format.printf "removed %d cache entrie(s) from %s@." removed dir)

(* --- obs: analyze observability artifacts --- *)

let obs_diff file_a file_b json threshold =
  (match threshold with
  | Some t when t < 0.0 ->
      Format.eprintf "dpcc: --threshold must be non-negative (got %g)@." t;
      exit 2
  | _ -> ());
  let load path =
    match Dp_obs.Diff.load path with
    | Ok sides -> sides
    | Error msg ->
        Format.eprintf "dpcc: %s@." msg;
        exit 2
  in
  let a = load file_a and b = load file_b in
  match Dp_obs.Diff.diff ~a ~b with
  | Error msg ->
      Format.eprintf "dpcc: %s@." msg;
      exit 2
  | Ok r -> (
      if json then print_endline (Dp_util.Json.to_compact (Dp_obs.Diff.to_json r))
      else Format.printf "%a@." Dp_obs.Diff.pp r;
      match threshold with
      | Some t when Dp_obs.Diff.exceeds ~threshold:t r ->
          Format.eprintf "dpcc: distribution shift: max KS %.6f exceeds --threshold %g@."
            r.Dp_obs.Diff.max_ks t;
          exit 1
      | _ -> ())

(* --- emit --- *)

let emit source output =
  with_errors (fun () ->
      let ctx = Pipeline.load source in
      let stripes =
        List.map
          (fun (e : Layout.entry) ->
            (e.Layout.decl.Ir.name, Dp_lang.Emit.stripe_spec e.Layout.striping))
          (Pipeline.layout ctx).Layout.entries
      in
      let text = Dp_lang.Emit.to_string ~stripes (Pipeline.program ctx) in
      match output with
      | Some path ->
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
      | None -> print_string text)

(* --- convert: trace files between the text and binary formats --- *)

let convert input output format_name =
  with_errors (fun () ->
      let trace, hints, faults, read_as =
        match Bin.load_result input with
        | Ok v -> v
        | Error e -> fail "%s" (Request.load_error_to_string e)
      in
      let format =
        match format_name with
        (* No --format: convert to the opposite of what the input is. *)
        | None -> ( match read_as with `Bin -> `Text | `Text -> `Bin)
        | Some name -> trace_format_of_name name
      in
      save_trace ~format ~hints ?faults output trace;
      Format.eprintf "%s: %d requests, %d hints -> %s (%s)@." input (Trace.length trace)
        (List.length hints) output
        (match format with `Bin -> "binary" | `Text -> "text"))

(* --- chaos: randomized fault-schedule soak with differential oracles ---

   Scenarios stream from one root seed; every failing one becomes a
   reproducer directory (shrunk first under --shrink).  Exit 0 when the
   soak is green, 1 when any violation survives, 2 on bad flags — the
   CI contract. *)

let chaos_outcome_json (s : Dp_chaos.Scenario.t) (o : Dp_chaos.Check.outcome) =
  let module J = Dp_harness.Json_out in
  J.Obj
    [
      ("token", J.String (Dp_chaos.Scenario.token_string s));
      ("scenario", J.String (Dp_chaos.Scenario.describe s));
      ("runs", J.Int o.Dp_chaos.Check.runs);
      ("requests", J.Int o.Dp_chaos.Check.requests);
      ( "violations",
        J.List
          (List.map
             (fun (v : Dp_chaos.Check.violation) ->
               J.Obj
                 [
                   ("check", J.String v.Dp_chaos.Check.check);
                   ("detail", J.String v.Dp_chaos.Check.detail);
                 ])
             o.Dp_chaos.Check.violations) );
    ]

let chaos_emit_json json payload =
  match json with
  | None -> ()
  | Some "-" -> print_string (Dp_harness.Json_out.to_string payload ^ "\n")
  | Some path -> Fsx.atomic_write path (Dp_harness.Json_out.to_string payload ^ "\n")

let chaos seed budget wall_ms shrink replay_dir sabotage_name out_dir json profile =
  with_profile profile @@ fun () ->
  with_errors (fun () ->
      let sabotage =
        match sabotage_name with
        | None -> None
        | Some name -> (
            match Dp_chaos.Check.sabotage_of_name name with
            | Some _ as s -> s
            | None ->
                fail "unknown --sabotage %s (expected %s)" name
                  (String.concat " | "
                     (List.map Dp_chaos.Check.sabotage_name Dp_chaos.Check.all_sabotages)))
      in
      (match budget with
      | Some n when n < 1 -> fail "--budget must be at least 1 (got %d)" n
      | _ -> ());
      (match wall_ms with
      | Some t when t <= 0.0 -> fail "--wall-ms must be positive (got %g)" t
      | _ -> ());
      match replay_dir with
      | Some dir -> (
          match Dp_chaos.Chaos.replay ?sabotage ~dir () with
          | Error msg -> fail "--replay %s: %s" dir msg
          | Ok (s, outcome) ->
              let module J = Dp_harness.Json_out in
              chaos_emit_json json
                (J.Obj [ ("replay", J.String dir); ("result", chaos_outcome_json s outcome) ]);
              (match outcome.Dp_chaos.Check.violations with
              | [] ->
                  if json = None then
                    Format.printf "replay %s: clean (%s; %d runs)@." dir
                      (Dp_chaos.Scenario.describe s) outcome.Dp_chaos.Check.runs
              | vs ->
                  if json = None then begin
                    Format.printf "replay %s: %d violation%s (%s)@." dir (List.length vs)
                      (if List.length vs = 1 then "" else "s")
                      (Dp_chaos.Scenario.describe s);
                    List.iter
                      (fun (v : Dp_chaos.Check.violation) ->
                        Format.printf "  %s: %s@." v.Dp_chaos.Check.check
                          v.Dp_chaos.Check.detail)
                      vs
                  end;
                  exit 1))
      | None ->
          let cfg =
            {
              Dp_chaos.Chaos.seed;
              budget;
              wall_ms;
              shrink;
              sabotage;
              out_dir;
            }
          in
          let progress (n, s, (o : Dp_chaos.Check.outcome)) =
            if json = None && o.Dp_chaos.Check.violations <> [] then
              Format.printf "scenario %d (token %s): %d violation%s — %s@." n
                (Dp_chaos.Scenario.token_string s)
                (List.length o.Dp_chaos.Check.violations)
                (if List.length o.Dp_chaos.Check.violations = 1 then "" else "s")
                (Dp_chaos.Scenario.describe s)
          in
          let summary = Dp_chaos.Chaos.soak ~progress cfg in
          let module J = Dp_harness.Json_out in
          chaos_emit_json json
            (J.Obj
               [
                 ("seed", J.Int seed);
                 ("scenarios", J.Int summary.Dp_chaos.Chaos.scenarios);
                 ("runs", J.Int summary.Dp_chaos.Chaos.runs);
                 ("elapsed_ms", J.Float summary.Dp_chaos.Chaos.elapsed_ms);
                 ( "findings",
                   J.List
                     (List.map
                        (fun (f : Dp_chaos.Chaos.finding) ->
                          let shrink_fields =
                            match (f.Dp_chaos.Chaos.shrunk, f.Dp_chaos.Chaos.shrink_stats)
                            with
                            | Some small, Some st ->
                                [
                                  ( "shrunk",
                                    J.Obj
                                      [
                                        ( "nests",
                                          J.Int (Dp_chaos.Scenario.nest_count small) );
                                        ( "fault_classes",
                                          J.Int (Dp_chaos.Scenario.fault_class_count small)
                                        );
                                        ("attempts", J.Int st.Dp_chaos.Shrink.attempts);
                                        ("kept", J.Int st.Dp_chaos.Shrink.kept);
                                      ] );
                                ]
                            | _ -> []
                          in
                          J.Obj
                            ([
                               ( "result",
                                 chaos_outcome_json f.Dp_chaos.Chaos.scenario
                                   f.Dp_chaos.Chaos.outcome );
                               ("repro_dir", J.String f.Dp_chaos.Chaos.repro_dir);
                             ]
                            @ shrink_fields))
                        summary.Dp_chaos.Chaos.findings) );
               ]);
          if json = None then
            Format.printf "chaos: %d scenarios, %d engine runs, %d finding%s (%.0f ms)@."
              summary.Dp_chaos.Chaos.scenarios summary.Dp_chaos.Chaos.runs
              (List.length summary.Dp_chaos.Chaos.findings)
              (if List.length summary.Dp_chaos.Chaos.findings = 1 then "" else "s")
              summary.Dp_chaos.Chaos.elapsed_ms;
          List.iter
            (fun (f : Dp_chaos.Chaos.finding) ->
              if json = None then
                Format.printf "  reproducer: %s (replay: %s)@." f.Dp_chaos.Chaos.repro_dir
                  (Dp_chaos.Repro.replay_command ?sabotage ~dir:f.Dp_chaos.Chaos.repro_dir ()))
            summary.Dp_chaos.Chaos.findings;
          if summary.Dp_chaos.Chaos.findings <> [] then exit 1)

(* --- cmdliner wiring --- *)

open Cmdliner

let source_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROG" ~doc:"A .dpl source file, or app:NAME for a built-in workload")

let procs_arg =
  Arg.(value & opt int 1 & info [ "procs"; "p" ] ~docv:"N" ~doc:"Number of processors")

let restructured_arg =
  Arg.(
    value & flag
    & info [ "restructure"; "t" ]
        ~doc:
          "Apply disk-reuse restructuring (defaults to the single-CPU algorithm at one \
           processor and the layout-aware scheme when --procs > 1; override with --mode)")

let mode_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mode" ] ~docv:"single|multi"
        ~doc:
          "Which restructured stream family to produce (requires --restructure): single \
           (the single-CPU reuse algorithm applied per processor, fork-join barriers \
           kept — the T-*-s rows) or multi (the layout-aware parallelization, per-CPU \
           disk tours, needs --procs > 1 — the T-*-m rows)")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run matrix rows in parallel on up to N domains, never more than the host's \
           recommended domain count; results are deterministic — output is \
           byte-identical to --jobs 1")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time the compiler passes (dependence-graph build, reuse scheduling, layout \
           unification, pipeline stages, trace generation, simulation) and print a \
           per-pass table to stderr")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent stage-cache directory (default: \\$DPOWER_CACHE_DIR, else \
           \\$XDG_CACHE_HOME/dpower, else ~/.cache/dpower)")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Bypass the persistent stage cache entirely (compute every stage in memory; \
           output is identical either way)")

let show_cmd =
  let deps = Arg.(value & flag & info [ "deps" ] ~doc:"Also print dependence analysis") in
  Cmd.v
    (Cmd.info "show" ~doc:"Parse a program and print its IR, layout and analyses")
    Term.(const show $ source_arg $ deps $ profile_arg)

let restructure_cmd =
  let symbolic =
    Arg.(
      value & flag
      & info [ "symbolic" ]
          ~doc:
            "Emit the omega-lite transformed loop nests (dependence-free programs only) \
             instead of the concrete schedule summary")
  in
  Cmd.v
    (Cmd.info "restructure" ~doc:"Print the disk-reuse restructuring of a program")
    Term.(const restructure $ source_arg $ symbolic $ profile_arg)

let trace_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file")
  in
  let gaps =
    Arg.(value & flag & info [ "gaps" ] ~doc:"Print the per-disk idle-gap histogram")
  in
  let hints =
    Arg.(
      value & flag
      & info [ "hints" ]
          ~doc:
            "Also emit the compiler power-hint stream (spin-down, pre-spin-up and \
             set-RPM directives planned on the nominal timeline) into the trace")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SEED:RATE:CLASSES"
          ~doc:"Embed a fault-injection window (an F line) into the trace")
  in
  let format =
    Arg.(
      value & opt string "text"
      & info [ "format" ] ~docv:"text|bin"
          ~doc:
            "Trace file format: text (the human line format) or bin (the chunked, \
             checksummed binary codec — a fraction of the size; needs -o).  \
             Both carry the same requests, hints and fault window; dpsim auto-detects \
             either.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Generate the timed I/O request trace of a program")
    Term.(
      const trace $ source_arg $ output $ procs_arg $ restructured_arg $ mode_arg $ gaps
      $ hints $ faults $ format $ cache_dir_arg $ no_cache_arg $ profile_arg)

let simulate_cmd =
  let policy =
    Arg.(
      value & opt string "none"
      & info [ "policy" ] ~docv:"P"
          ~doc:
            "none | tpm | tpm-proactive | drpm | drpm-proactive | online | oracle-tpm | \
             oracle-drpm (proactive policies execute compiler hints; oracle-* print the \
             offline-optimal bound instead of simulating)")
  in
  let per_disk = Arg.(value & flag & info [ "per-disk" ] ~doc:"Print per-disk statistics") in
  let timeline =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Render the per-disk power-state chart")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SEED:RATE:CLASSES"
          ~doc:
            "Arm the deterministic fault injector, e.g. 42:0.01:all or 7:0.05:sm \
             (s spin-up, m media, l latency spike, r stuck RPM, d media decay)")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the trace-driven disk power simulation")
    Term.(
      const simulate $ source_arg $ procs_arg $ restructured_arg $ mode_arg $ policy
      $ per_disk $ timeline $ faults $ cache_dir_arg $ no_cache_arg $ profile_arg)

let report_cmd =
  let json =
    Arg.(
      value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Also write JSON results")
  in
  let obs =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Attach per-run observability reports (idle-gap / response-time / \
             standby-residency histograms); they appear under \"obs\" in the JSON output")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Run the full version matrix for a program and print figures")
    Term.(
      const report $ source_arg $ procs_arg $ jobs_arg $ json $ obs $ cache_dir_arg
      $ no_cache_arg $ profile_arg)

let fault_sweep_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Fault injector seed")
  in
  let rates =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "rates" ] ~docv:"R1,R2,..."
          ~doc:"Fault rates to sweep (default 0,0.001,0.01,0.05,0.1)")
  in
  let classes =
    Arg.(
      value
      & opt (some string) None
      & info [ "classes" ] ~docv:"CLASSES"
          ~doc:
            "Fault classes: letters from smlrd (s spin-up, m media, l latency spike, \
             r stuck RPM, d media decay) or all")
  in
  let json =
    Arg.(
      value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Also write JSON results")
  in
  let obs_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-jsonl" ] ~docv:"FILE"
          ~doc:
            "Write the ramp's gap-histogram artifact (one JSON object per disk per \
             observed run, concatenated in rate then version order) — the input format \
             of 'dpcc obs diff'")
  in
  Cmd.v
    (Cmd.info "fault-sweep"
       ~doc:
         "Re-simulate the version matrix of a program across a fault-rate ramp (same seed \
          at every point) and report energy and degraded time per version")
    Term.(
      const fault_sweep $ source_arg $ procs_arg $ jobs_arg $ seed $ rates $ classes
      $ json $ obs_jsonl $ cache_dir_arg $ no_cache_arg $ profile_arg)

let emit_cmd =
  let output =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file")
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Emit a program back as .dpl source (with its striping)")
    Term.(const emit $ source_arg $ output)

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IN" ~doc:"Input trace file (text or binary, auto-detected)")
  in
  let output =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output trace file")
  in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"text|bin"
          ~doc:"Output format (default: the opposite of the input's)")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a trace file between the text and binary formats (lossless both ways: \
          requests, hints and the fault window all carry over)")
    Term.(const convert $ input $ output $ format)

let serve_cmd =
  let tenants =
    Arg.(
      value & opt int 10
      & info [ "tenants"; "n" ] ~docv:"N"
          ~doc:
            "Number of tenants multiplexed onto the array: every fourth replays a window \
             of one of the six paper applications, the rest are seeded synthetic OLTP \
             streams")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Master seed: tenant parameters and arrival jitter derive from it, so equal \
             seeds give byte-identical reports")
  in
  let disks =
    Arg.(value & opt int 8 & info [ "disks"; "d" ] ~docv:"N" ~doc:"Array size (I/O nodes)")
  in
  let jitter =
    Arg.(
      value & opt float 30_000.0
      & info [ "jitter-ms" ] ~docv:"MS"
          ~doc:"Tenant start offsets are uniform in [0, MS) — the arrival-time spread")
  in
  let policy =
    Arg.(
      value & opt string "all"
      & info [ "policy" ] ~docv:"P"
          ~doc:
            "Which rows to compute: offline (per-tenant compiler hints executed on the \
             merged stream), online (the epoch-based adaptive policy), oracle (the \
             offline-optimal bound alone), or all")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SEED:RATE:CLASSES"
          ~doc:
            "Arm the deterministic fault injector for the simulated rows, e.g. \
             42:0.01:all or 7:0.05:smd (s spin-up, m media, l latency spike, r stuck \
             RPM, d media decay).  The oracle bound stays fault-free.")
  in
  let decay =
    Arg.(
      value
      & opt (some string) None
      & info [ "decay" ] ~docv:"SEED:RATE"
          ~doc:
            "Shorthand for --faults SEED:RATE:d — persistent media decay only.  Grown \
             bad sectors are remapped to each disk's spare pool; past the failure \
             threshold the slot is served degraded from its mirror and rebuilt onto a \
             hot spare.  Arms a default 500 ms deadline unless --deadline is given.")
  in
  let scrub =
    Arg.(
      value & opt float 0.0
      & info [ "scrub-ms" ] ~docv:"MS"
          ~doc:
            "Background-scrub budget per idle gap (milliseconds of verification reads, \
             preempted by foreground arrivals); 0 disables scrubbing")
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
            "Per-request SLO deadline: responses past it count as violations, past four \
             deadlines as abandoned; media-error retry storms that blow it fail over to \
             the mirror")
  in
  let json =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the report as JSON to FILE ('-' or no value: stdout, replacing the \
             human table)")
  in
  let obs_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-jsonl" ] ~docv:"FILE"
          ~doc:
            "Write the per-row gap-histogram artifact (one JSON object per disk per \
             simulated row, concatenated in row order) — the input format of 'dpcc obs \
             diff'")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Render each simulated row's live per-disk console (plain periodic frames, \
             keyed on simulated time; printed in row order before the report, so output \
             is byte-identical across --jobs)")
  in
  (* Serve builds its app windows from the programs' first iterations
     and no trace stage, so it has nothing to store: the two cache flags
     every pipeline command takes are accepted and ignored. *)
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Accepted for symmetry with the other commands; a no-op for serve, which \
                opens no stage store")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Accepted for symmetry with the other commands; a no-op for serve, which \
                opens no stage store")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Multiplex N tenant workloads onto one disk array and compare offline compiler \
          hints, online adaptation and the oracle bound")
    Term.(
      const serve $ tenants $ seed $ disks $ jitter $ policy $ jobs_arg $ faults $ decay
      $ scrub $ spare $ deadline $ json $ obs_jsonl $ live $ cache_dir $ no_cache
      $ profile_arg)

let chaos_cmd =
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Root seed of the soak: scenario N of seed S is always the same scenario, so \
             a soak log line plus this flag is a complete reproducer")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Number of scenarios to run (default 100 when neither --budget nor --wall-ms \
             is given)")
  in
  let wall_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "wall-ms" ] ~docv:"MS"
          ~doc:
            "Stop drawing new scenarios once MS milliseconds have elapsed (the scenario \
             in flight finishes) — the nightly-soak budget knob")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Delta-debug every failing scenario before writing its reproducer: drop loop \
             nests and statements, thin the fault schedule, zero the knobs — keeping \
             each step only if the oracle still fails")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Re-run a reproducer directory (written by a previous soak) through the \
             oracle instead of soaking")
  in
  let sabotage =
    Arg.(
      value
      & opt (some string) None
      & info [ "sabotage" ] ~docv:"KIND"
          ~doc:
            "Deliberately break an invariant (test hook): 'energy' skews the observed \
             power-span sum so the conservation check must fire — exercises the \
             catch-shrink-replay path end to end")
  in
  let out_dir =
    Arg.(
      value
      & opt string Dp_chaos.Chaos.default_out_dir
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory reproducer directories are written under")
  in
  let json =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the soak (or replay) summary as JSON to FILE ('-' or no value: \
             stdout, replacing the human lines)")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Randomized fault-schedule soak: generate scenarios from a seed, run each under \
          paired configurations with differential oracles, shrink failures to minimal \
          reproducer directories")
    Term.(
      const chaos $ seed $ budget $ wall_ms $ shrink $ replay $ sabotage $ out_dir $ json
      $ profile_arg)

let cache_subcommand_docs =
  [
    ("stat", "Entry count, size and the previous run's hit statistics");
    ("clear", "Remove every entry, quarantined file and temp file");
  ]

let cache_cmd =
  let stat_json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the statistics as one JSON object (entries, bytes, quarantined, temp, \
             and the previous run's hit/miss/corrupt/dropped-write counters) instead of \
             the human table")
  in
  let stat_cmd =
    Cmd.v
      (Cmd.info "stat" ~doc:(List.assoc "stat" cache_subcommand_docs))
      Term.(const cache_stat $ cache_dir_arg $ stat_json)
  in
  let clear_cmd =
    Cmd.v
      (Cmd.info "clear" ~doc:(List.assoc "clear" cache_subcommand_docs))
      Term.(const cache_clear $ cache_dir_arg)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or clear the persistent stage cache")
    [ stat_cmd; clear_cmd ]

let obs_subcommand_docs =
  [
    ( "diff",
      "Compare two gap-histogram JSONL artifacts: KS / earth-mover distance per disk \
       and distribution, with energy / response / residency deltas" );
  ]

let obs_cmd =
  (* Plain strings, not Arg.file: cmdliner's existence check exits with
     its own CLI-error status, while a missing artifact should get the
     same one-line exit-2 diagnostic as any other malformed input. *)
  let file_a =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc:"Baseline artifact")
  in
  let file_b =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc:"Candidate artifact")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object (per-line shift statistics plus max_ks / max_emd) \
             instead of the human table")
  in
  let threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"KS"
          ~doc:
            "Exit 1 when the worst KS statistic across every line and distribution \
             exceeds KS (the diff is still printed)")
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff" ~doc:(List.assoc "diff" obs_subcommand_docs))
      Term.(const obs_diff $ file_a $ file_b $ json $ threshold)
  in
  Cmd.group
    (Cmd.info "obs" ~doc:"Analyze observability artifacts")
    [ diff_cmd ]

(* cmdliner's own unknown-command diagnostic is a terse hint; a wrong
   subcommand deserves the full command list.  Scan argv before handing
   over: the first non-flag argument must name a known command. *)
let command_docs =
  [
    ("show", "Parse a program and print its IR, layout and analyses");
    ("restructure", "Print the disk-reuse restructuring of a program");
    ("trace", "Generate the timed I/O request trace of a program");
    ("simulate", "Run the trace-driven disk power simulation");
    ("emit", "Emit a program back as .dpl source (with its striping)");
    ("convert", "Convert a trace file between the text and binary formats");
    ("report", "Run the full version matrix for a program and print figures");
    ("fault-sweep", "Re-simulate the version matrix across a fault-rate ramp");
    ("serve", "Multiplex N tenants onto one array: offline hints vs online adaptation");
    ("chaos", "Randomized fault-schedule soak with differential oracles and shrinking");
    ("cache", "Inspect or clear the persistent stage cache");
    ("obs", "Analyze observability artifacts (diff gap-histogram JSONL files)");
  ]

(* cmdliner accepts unambiguous command prefixes; only a name that
   matches no command at all is truly unknown. *)
let prefix_of arg (name, _) =
  String.length arg <= String.length name
  && String.equal arg (String.sub name 0 (String.length arg))

let unknown_command ~usage ~docs arg =
  Format.eprintf "dpcc: unknown command %S@.@.Usage: %s@.@.Commands:@." arg usage;
  List.iter (fun (n, d) -> Format.eprintf "  %-12s %s@." n d) docs;
  Format.eprintf "@.Run 'dpcc COMMAND --help' for command-specific options.@.";
  exit 2

let check_subcommand () =
  if Array.length Sys.argv > 1 then begin
    let arg = Sys.argv.(1) in
    if String.length arg > 0 && arg.[0] <> '-' then
      match List.filter (prefix_of arg) command_docs with
      | [] -> unknown_command ~usage:"dpcc COMMAND ..." ~docs:command_docs arg
      | [ (name, _) ] -> (
          (* [cache] and [obs] are themselves command groups: vet their
             subcommand too so [dpcc cache bogus] / [dpcc obs bogus] are
             usage errors (exit 2), not cmdliner's generic CLI failure.
             A group is vetted only when the prefix resolves to exactly
             one command — "c" is ambiguous between cache and convert,
             and cmdliner reports that itself. *)
          let groups = [ ("cache", cache_subcommand_docs); ("obs", obs_subcommand_docs) ] in
          match List.assoc_opt name groups with
          | Some docs when Array.length Sys.argv > 2 ->
              let sub = Sys.argv.(2) in
              if
                String.length sub > 0
                && sub.[0] <> '-'
                && not (List.exists (prefix_of sub) docs)
              then
                unknown_command ~usage:(Printf.sprintf "dpcc %s COMMAND ..." name) ~docs
                  sub
          | _ -> ())
      | _ :: _ :: _ -> (* ambiguous prefix: cmdliner lists the candidates *) ()
  end

let () =
  check_subcommand ();
  let info =
    Cmd.info "dpcc" ~version:"1.0.0"
      ~doc:"Compiler-guided disk power reduction (CGO 2006 reproduction)"
  in
  exit
    (Cmd.eval ~term_err:2
       (Cmd.group info
          [
            show_cmd; restructure_cmd; trace_cmd; simulate_cmd; emit_cmd; convert_cmd;
            report_cmd; fault_sweep_cmd; serve_cmd; chaos_cmd; cache_cmd; obs_cmd;
          ]))
