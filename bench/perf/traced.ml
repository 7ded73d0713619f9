(* The traced pass: the same inputs as the CLI workloads, run in this
   process with each layer's public functions called explicitly, in
   dependency order, under a span each — so every span is self time.
   It mirrors dpcc report, Runner.run, Serve.run and Chaos.soak, and its
   replica guard checks that the mirror still produces the CLI's bytes
   and makes the CLI's stage builds. *)

module Pipeline = Dp_pipeline.Pipeline
module Runner = Dp_harness.Runner
module Version = Dp_harness.Version
module Experiments = Dp_harness.Experiments
module J = Dp_harness.Json_out
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Disk_model = Dp_disksim.Disk_model
module Oracle = Dp_oracle.Oracle
module Generate = Dp_trace.Generate
module Hint = Dp_trace.Hint
module Request = Dp_trace.Request
module Cachefs = Dp_cachefs.Cachefs
module Serve = Dp_serve.Serve
module Tenant = Dp_serve.Tenant
module Mux = Dp_serve.Mux
module Account = Dp_serve.Account
module Splitmix = Dp_util.Splitmix
module Scenario = Dp_chaos.Scenario
module Check = Dp_chaos.Check

(* What a traced pass did: its ops and every replica mismatch, named. *)
type outcome = { attempted : int; failed : int; problems : string list }

let md5 s = Digest.to_hex (Digest.string s)
let procs = 4
let modes = [ Pipeline.Original; Pipeline.Reuse_single; Pipeline.Reuse_multi ]

(* The stage builds dpcc report makes per app on an empty cache: one
   graph; streams and a trace per mode; hints for each proactive
   restructured row (T-TPM-s and T-TPM-m — the T-DRPM rows run the
   reactive DRPM policy, which takes no hints).  A warm cache builds
   nothing. *)
let expected_builds ~warm = if warm then (0, 0, 0, 0) else (1, 3, 3, 2)

(* One app of dpcc report FILE --procs 4: the CLI's Experiments.build_matrix
   over Version.multi_cpu @ Version.oracle, each Runner.run unrolled. *)
let report_app sp ~cache ~warm app_name =
  let source = Cli.source app_name in
  let span name f = Spans.record sp ~item:app_name name f in
  let app = Pipeline.app (span "lang.load" (fun () -> Pipeline.load source)) in
  let ctx = Runner.context ~cache app in
  (* A warm CLI run never builds the graph or the streams: the cached
     trace entries carry everything downstream needs. *)
  if not warm then begin
    ignore (span "dependence.graph" (fun () -> Pipeline.graph ctx));
    List.iter
      (fun m ->
        ignore
          (span ("restructure.streams." ^ Pipeline.mode_name m) (fun () ->
               Pipeline.streams ctx ~procs m)))
      modes
  end;
  let traces =
    List.map
      (fun m ->
        let name = "trace.stage." ^ Pipeline.mode_name m in
        let t = span name (fun () -> Pipeline.trace ctx ~procs m) in
        Spans.count sp "trace.requests" (float_of_int (List.length t));
        (m, t))
      modes
  in
  List.iter
    (fun m ->
      Spans.count sp "restructure.rounds"
        (float_of_int (Option.value ~default:0 (Pipeline.rounds ctx ~procs m))))
    [ Pipeline.Reuse_single; Pipeline.Reuse_multi ];
  let disks = Pipeline.disks ctx in
  let run version =
    let mode =
      match Version.oracle_space version with
      | None -> Version.mode version
      | Some _ -> Pipeline.Original
    in
    let trace = List.assoc mode traces in
    let summary = span "trace.summarize" (fun () -> Generate.summarize trace) in
    let mk ~result ~scheduler_rounds =
      { Runner.version; procs; result; summary; scheduler_rounds; obs = None }
    in
    match Version.oracle_space version with
    | Some space ->
        let b = span "oracle.bound" (fun () -> Oracle.lower_bound ~space ~disks trace) in
        mk ~scheduler_rounds:None
          ~result:
            {
              b.Oracle.base with
              Engine.policy = Version.name version;
              energy_j = b.Oracle.energy_j;
            }
    | None ->
        let policy = Version.policy version in
        let hints =
          if Version.restructured version then
            span "oracle.hints" (fun () -> Pipeline.hints_for ctx ~procs ~policy mode)
          else []
        in
        let result =
          span
            ("disksim.simulate." ^ String.lowercase_ascii (Version.name version))
            (fun () -> Engine.simulate ~hints ~disks policy trace)
        in
        Spans.count sp "disksim.requests" (float_of_int (List.length trace));
        mk ~result ~scheduler_rounds:(Pipeline.rounds ctx ~procs mode)
  in
  let matrix =
    [ (app, List.map (fun v -> (v, run v)) (Version.multi_cpu @ Version.oracle)) ]
  in
  span "harness.figures" (fun () ->
      let b = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer b in
      Experiments.fig_energy matrix ppf;
      Experiments.fig_perf matrix ppf;
      Format.pp_print_flush ppf ());
  let json = span "harness.json" (fun () -> J.to_string (J.of_matrix matrix) ^ "\n") in
  (matrix, json, Pipeline.stats ctx)

(* The six apps of a report workload against [cache_dir] (empty for
   cold, filled for warm).  Returns the per-app matrices too. *)
let report sp ~golden ~warm ~cache_dir =
  let cache =
    match Cachefs.open_store ~dir:cache_dir () with Ok c -> c | Error e -> failwith e
  in
  let results =
    List.map
      (fun app ->
        let matrix, json, (s : Pipeline.stats) = report_app sp ~cache ~warm app in
        let builds =
          (s.Pipeline.graph_builds, s.Pipeline.stream_builds, s.Pipeline.trace_builds,
           s.Pipeline.hint_builds)
        in
        let problems =
          (if Golden.matches golden ~kind:"report" ~key:app (md5 json) then []
           else [ Printf.sprintf "replica %s: report JSON differs from the CLI's" app ])
          @
          if builds = expected_builds ~warm then []
          else
            let g, st, t, h = builds in
            [
              Printf.sprintf
                "replica %s: built graph %d, streams %d, trace %d, hints %d; the CLI \
                 builds %s"
                app g st t h
                (let g, st, t, h = expected_builds ~warm in
                 Printf.sprintf "%d, %d, %d, %d" g st t h);
            ]
        in
        (matrix, problems))
      Cli.apps
  in
  Cachefs.save_run_counters cache;
  let k = Cachefs.counters cache in
  Spans.count sp "cachefs.hits" (float_of_int k.Cachefs.hits);
  Spans.count sp "cachefs.misses" (float_of_int k.Cachefs.misses);
  Spans.count sp "cachefs.write_failures" (float_of_int k.Cachefs.write_failures);
  Spans.count sp "cachefs.store_mb"
    (float_of_int (Cachefs.usage ~dir:cache_dir).Cachefs.bytes /. 1048576.);
  let problems = List.concat_map snd results in
  ( List.concat_map fst results,
    {
      attempted = List.length Cli.apps;
      failed = List.length (List.filter (fun (_, p) -> p <> []) results);
      problems;
    } )

(* dpcc serve --tenants 1000 --seed SEED --jobs 1 --no-cache: Serve.run
   with its row fan-out unrolled in spec order. *)
let serve sp ~golden ~seed =
  let span name f = Spans.record sp ~item:(Printf.sprintf "serve seed %d" seed) name f in
  let cfg = Serve.config ~tenants:Cli.tenants ~seed () in
  let disks = cfg.Serve.disks and tenants = cfg.Serve.tenants in
  let root = Splitmix.create seed in
  let pop_rng = Splitmix.split root in
  let mux_rng = Splitmix.split root in
  let population =
    span "serve.population" (fun () -> Tenant.population ~rng:pop_rng ~tenants ~disks ())
  in
  let merged, by_tenant =
    span "serve.mux" (fun () ->
        let merged = Mux.merge ~rng:mux_rng ~jitter_ms:cfg.Serve.jitter_ms population in
        let by_tenant = Array.make tenants [] in
        List.iter
          (fun (r : Request.t) ->
            by_tenant.(r.Request.proc) <- r :: by_tenant.(r.Request.proc))
          merged;
        (merged, Array.map List.rev by_tenant))
  in
  Spans.count sp "serve.requests" (float_of_int (List.length merged));
  let sim (label, policy, hint_space) =
    let hints =
      match hint_space with
      | None -> []
      | Some space ->
          span "oracle.hints" (fun () ->
              List.stable_sort Hint.compare_at
                (List.concat_map
                   (fun stream -> Oracle.hints_of_trace ~space ~disks stream)
                   (Array.to_list by_tenant)))
    in
    let sink, finish = Account.recorder ~tenants ~disks () in
    let res =
      span ("disksim.simulate." ^ label) (fun () ->
          Engine.simulate ~model:Disk_model.ultrastar_36z15 ~obs:sink ~hints ~shards:1
            ~disks policy merged)
    in
    Spans.count sp "disksim.requests" (float_of_int (List.length merged));
    let summary = span "serve.account" finish in
    {
      Serve.label;
      detail = Policy.describe policy;
      energy_j = res.Engine.energy_j;
      makespan_ms = res.Engine.makespan_ms;
      summary = Some summary;
      obs = None;
      frames = None;
    }
  in
  let rows =
    List.map sim
      [
        ("base", Policy.No_pm, None);
        ("offline-tpm", Policy.tpm ~proactive:true (), Some Oracle.Tpm_space);
        ("offline-drpm", Policy.drpm ~proactive:true (), Some Oracle.Drpm_space);
        ("online", Policy.default_adaptive, None);
      ]
  in
  let bound =
    span "oracle.bound" (fun () ->
        Oracle.lower_bound ~space:Oracle.Full_space ~disks merged)
  in
  let oracle_row =
    {
      Serve.label = "oracle";
      detail = "offline-optimal lower bound (full space)";
      energy_j = bound.Oracle.energy_j;
      makespan_ms = bound.Oracle.base.Engine.makespan_ms;
      summary = None;
      obs = None;
      frames = None;
    }
  in
  let report =
    {
      Serve.config = cfg;
      requests = List.length merged;
      kinds =
        Array.of_list
          (List.map (fun (t : Tenant.t) -> Tenant.kind_name t.Tenant.kind) population);
      rows = rows @ [ oracle_row ];
    }
  in
  let json = span "harness.json" (fun () -> J.to_string (J.of_serve report) ^ "\n") in
  if Golden.matches golden ~kind:"serve" ~key:(string_of_int seed) (md5 json) then
    { attempted = 1; failed = 0; problems = [] }
  else
    {
      attempted = 1;
      failed = 1;
      problems =
        [ Printf.sprintf "replica serve seed %d: JSON differs from the CLI's" seed ];
    }

(* dpcc chaos --seed SEED --budget 500: tokens drawn exactly as
   Chaos.soak draws them, one generate and one oracle check each. *)
let chaos sp ~golden ~seed =
  let root = Splitmix.create seed in
  let runs = ref 0 and findings = ref 0 in
  for _ = 1 to Cli.budget do
    let token = Splitmix.next_int64 root in
    let item = Printf.sprintf "%016Lx" token in
    let s = Spans.record sp ~item "chaos.generate" (fun () -> Scenario.generate token) in
    let o = Spans.record sp ~item "chaos.check" (fun () -> Check.run s) in
    runs := !runs + o.Check.runs;
    Spans.count sp "chaos.requests" (float_of_int o.Check.requests);
    if o.Check.violations <> [] then incr findings
  done;
  Spans.count sp "chaos.engine_runs" (float_of_int !runs);
  Spans.count sp "chaos.findings" (float_of_int !findings);
  let runs_ok =
    Golden.matches golden ~kind:"chaos" ~key:(string_of_int seed) (string_of_int !runs)
  in
  {
    attempted = Cli.budget;
    failed = (if not runs_ok then Cli.budget else !findings);
    problems =
      (if runs_ok then []
       else
         [
           Printf.sprintf "replica chaos seed %d: %d engine runs, not the CLI's count" seed
             !runs;
         ])
      @
      if !findings = 0 then []
      else [ Printf.sprintf "chaos seed %d: %d scenario(s) with findings" seed !findings ];
  }
