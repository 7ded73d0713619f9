(* Benchmark and experiment harness.

   Regenerates every table and figure of the paper's evaluation
   (Section 7) — Table 1, Table 2, Figures 9(a), 9(b), 10(a), 10(b) —
   plus the ablations called out in DESIGN.md and a set of Bechamel
   microbenchmarks of the compiler passes.

   Usage: dune exec bench/main.exe [-- SECTION...]
   Sections: table1 table2 fig9a fig10a fig9b fig10b ablate-cluster
             ablate-tpm ablate-drpm ablate-stripes layout-opt
             proactive-drpm fusion caching transform prefetch two-speed
             breakdown obs-overhead pipeline cache serve repair chaos
             trace-codec micro all
   (default: all). *)

module App = Dp_workloads.App
module Workloads = Dp_workloads.Workloads
module Ir = Dp_ir.Ir
module Striping = Dp_layout.Striping
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Cluster = Dp_restructure.Cluster
module Reuse = Dp_restructure.Reuse_scheduler
module Generate = Dp_trace.Generate
module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Version = Dp_harness.Version
module Runner = Dp_harness.Runner
module Experiments = Dp_harness.Experiments
module Tabulate = Dp_harness.Tabulate
module Pipeline = Dp_pipeline.Pipeline

let ppf = Format.std_formatter
let section title = Format.printf "@.==================== %s ====================@." title

(* Matrices are shared across sections; compute lazily once. *)
let matrix_1p =
  lazy
    (Experiments.build_matrix ~procs:1
       ~versions:
         [ Version.Base; Version.Tpm; Version.Drpm; Version.T_tpm_s; Version.T_drpm_s ]
       ())

let matrix_4p =
  lazy (Experiments.build_matrix ~procs:4 ~versions:Version.multi_cpu ())

let table1 () =
  section "Table 1";
  Experiments.table1 ppf;
  Format.printf "@."

let table2 () =
  section "Table 2";
  Experiments.table2 ~matrix:(Lazy.force matrix_1p) ppf;
  Format.printf "@."

let fig9a () =
  section "Figure 9(a) — energy, 1 CPU";
  Experiments.fig_energy (Lazy.force matrix_1p) ppf;
  Format.printf
    "paper reference (average savings): TPM ~0%%, DRPM 9.95%%, T-TPM-s 8.30%%, T-DRPM-s \
     18.30%%@."

let fig9b () =
  section "Figure 9(b) — energy, 4 CPUs";
  Experiments.fig_energy (Lazy.force matrix_4p) ppf;
  Format.printf
    "paper reference (average savings): T-TPM-s 3.84%%, T-DRPM-s 10.66%%, T-TPM-m \
     11.04%%, T-DRPM-m 18.04%%@."

let fig10a () =
  section "Figure 10(a) — performance degradation, 1 CPU";
  Experiments.fig_perf (Lazy.force matrix_1p) ppf;
  Format.printf
    "paper reference (averages): TPM ~0%%, DRPM 11.9%%, T-TPM-s 2.1%%, T-DRPM-s 4.7%%@."

let fig10b () =
  section "Figure 10(b) — performance degradation, 4 CPUs";
  Experiments.fig_perf (Lazy.force matrix_4p) ppf;
  Format.printf
    "paper reference (averages): DRPM 16.8%%, T-TPM-s 4.7%%, T-DRPM-s 8.7%%, T-TPM-m \
     2.8%%, T-DRPM-m 5.0%%@."

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5).  Each varies one design choice on a
   subset of applications, reporting normalized T-DRPM-s / T-TPM-s
   energy. *)

let ablation_apps = [ "AST"; "RSense 2.0" ]

let contexts =
  lazy
    (List.map (fun name -> Runner.context (Option.get (Workloads.by_name name))) ablation_apps)

(* The T-*-s trace of a context (a memoized pipeline stage), plus the
   scheduler round count. *)
let restructured_trace ?policy (ctx : Runner.ctx) =
  ( Pipeline.trace ?cluster:policy ctx ~procs:1 Pipeline.Reuse_single,
    Option.value ~default:0 (Pipeline.rounds ?cluster:policy ctx ~procs:1 Pipeline.Reuse_single)
  )

let base_trace (ctx : Runner.ctx) = Pipeline.trace ctx ~procs:1 Pipeline.Original

let normalized (ctx : Runner.ctx) policy trace =
  let disks = Pipeline.disks ctx in
  let base = Engine.simulate ~disks Policy.No_pm (base_trace ctx) in
  let r = Engine.simulate ~disks policy trace in
  r.Engine.energy_j /. base.Engine.energy_j

let ablate_cluster () =
  section "Ablation — clustering key for multi-disk iterations";
  let rows =
    List.map2
      (fun name ctx ->
        name
        :: List.map
             (fun policy ->
               let trace, _ = restructured_trace ~policy ctx in
               Tabulate.fmt_norm (normalized ctx Policy.default_drpm trace))
             Cluster.all_policies)
      ablation_apps (Lazy.force contexts)
  in
  Tabulate.render ppf
    ~header:("App (T-DRPM-s energy)" :: List.map Cluster.policy_name Cluster.all_policies)
    ~rows;
  Format.printf "@."

let ablate_tpm () =
  section "Ablation — TPM idleness threshold (x0.5 / x1 / x2 of break-even)";
  let breakeven = Dp_disksim.Disk_model.ultrastar_36z15.Dp_disksim.Disk_model.tpm_breakeven_s in
  let factors = [ 0.5; 1.0; 2.0 ] in
  let rows =
    List.map2
      (fun name ctx ->
        let trace, _ = restructured_trace ctx in
        name
        :: List.map
             (fun f ->
               Tabulate.fmt_norm
                 (normalized ctx
                    (Policy.tpm ~idle_threshold_s:(f *. breakeven) ~proactive:true ())
                    trace))
             factors)
      ablation_apps (Lazy.force contexts)
  in
  Tabulate.render ppf
    ~header:("App (T-TPM-s energy)" :: List.map (Printf.sprintf "x%.1f") factors)
    ~rows;
  Format.printf "@."

let ablate_drpm () =
  section "Ablation — DRPM per-level downshift idleness";
  let thresholds = [ 500.0; 1_000.0; 2_000.0; 4_000.0 ] in
  let rows =
    List.map2
      (fun name ctx ->
        let trace, _ = restructured_trace ctx in
        name
        :: List.map
             (fun ms ->
               Tabulate.fmt_norm
                 (normalized ctx (Policy.drpm ~downshift_idle_ms:ms ()) trace))
             thresholds)
      ablation_apps (Lazy.force contexts)
  in
  Tabulate.render ppf
    ~header:
      ("App (T-DRPM-s energy)" :: List.map (fun ms -> Printf.sprintf "%.1fs" (ms /. 1000.)) thresholds)
    ~rows;
  Format.printf "@."

(* Rebuild an application's layout with a different stripe factor; the
   derived context shares the parent's dependence graph. *)
let ctx_with_factor (app : App.t) parent factor =
  let overrides =
    List.mapi
      (fun k (a : Ir.array_decl) ->
        let row_pages =
          match a.Ir.dims with [] -> 1 | _ :: rest -> List.fold_left ( * ) 1 rest
        in
        let prev = List.assoc a.Ir.name app.App.overrides in
        let rows = prev.Striping.unit_bytes / (row_pages * App.page_bytes) in
        ( a.Ir.name,
          Striping.make
            ~unit_bytes:(max 1 rows * row_pages * App.page_bytes)
            ~factor
            ~start_disk:(k * 2 mod factor) ))
      app.App.program.Ir.arrays
  in
  let layout = Layout.make ~default:app.App.striping ~overrides app.App.program in
  Pipeline.derive ~layout parent

let ablate_stripes () =
  section "Ablation — stripe factor (number of I/O nodes)";
  let factors = [ 4; 8; 16 ] in
  let rows =
    List.map
      (fun name ->
        let app = Option.get (Workloads.by_name name) in
        let parent = Pipeline.of_app app in
        name
        :: List.map
             (fun f ->
               let ctx = ctx_with_factor app parent f in
               let trace, _ = restructured_trace ctx in
               Tabulate.fmt_norm (normalized ctx Policy.default_drpm trace))
             factors)
      ablation_apps
  in
  Tabulate.render ppf
    ~header:("App (T-DRPM-s energy)" :: List.map (Printf.sprintf "%d disks") factors)
    ~rows;
  Format.printf "@."

let ablate_layout_opt () =
  section "Extension — unified layout optimizer (paper's future work)";
  let rows =
    List.map
      (fun name ->
        let app = Option.get (Workloads.by_name name) in
        let parent = Pipeline.of_app app in
        let res =
          Dp_restructure.Layout_opt.optimize ~factor:8 ~initial:app.App.overrides
            app.App.program (Pipeline.graph parent)
        in
        let energy overrides =
          let layout = Layout.make ~default:app.App.striping ~overrides app.App.program in
          let ctx = Pipeline.derive ~layout parent in
          let trace, _ = restructured_trace ctx in
          normalized ctx Policy.default_drpm trace
        in
        [
          name;
          Printf.sprintf "%.3f" res.Dp_restructure.Layout_opt.baseline_cost;
          Printf.sprintf "%.3f" res.Dp_restructure.Layout_opt.cost;
          Tabulate.fmt_norm (energy app.App.overrides);
          Tabulate.fmt_norm (energy res.Dp_restructure.Layout_opt.stripings);
        ])
      ablation_apps
  in
  Tabulate.render ppf
    ~header:[ "App"; "cost before"; "cost after"; "T-DRPM-s energy"; "with optimized layout" ]
    ~rows;
  Format.printf "@."

let ablate_proactive_drpm () =
  section "Extension — compiler-directed (proactive) DRPM speed setting";
  let rows =
    List.map2
      (fun name ctx ->
        let trace, _ = restructured_trace ctx in
        let cell policy =
          let disks = Pipeline.disks ctx in
          let base = Engine.simulate ~disks Policy.No_pm (base_trace ctx) in
          let r = Engine.simulate ~disks policy trace in
          Printf.sprintf "%s / %+.1f%%"
            (Tabulate.fmt_norm (r.Engine.energy_j /. base.Engine.energy_j))
            (100. *. (r.Engine.io_time_ms -. base.Engine.io_time_ms) /. base.Engine.io_time_ms)
        in
        [ name; cell Policy.default_drpm; cell (Policy.drpm ~proactive:true ()) ])
      ablation_apps (Lazy.force contexts)
  in
  Tabulate.render ppf
    ~header:[ "App (T-DRPM-s energy/perf)"; "reactive DRPM"; "proactive DRPM" ]
    ~rows;
  Format.printf "@."

let fusion_baseline () =
  section "Baseline — loop fusion vs disk-reuse restructuring";
  let rows =
    List.map2
      (fun name ctx ->
        let g = Pipeline.graph ctx and prog = Pipeline.program ctx in
        let layout = Pipeline.layout ctx in
        let table = Pipeline.cluster_table ctx in
        let switch order = Reuse.disk_switches table order in
        let fused = Dp_restructure.Fusion.order prog g in
        let reuse = (Reuse.schedule table g).Reuse.order in
        let energy order =
          let trace =
            Generate.trace layout prog g.Concrete.instances (Generate.single_stream ~order)
          in
          Tabulate.fmt_norm (normalized ctx Policy.default_drpm (Trace.to_list trace))
        in
        [
          name;
          string_of_int (switch (Concrete.original_order g));
          string_of_int (switch fused);
          string_of_int (switch reuse);
          energy fused;
          energy reuse;
        ])
      ablation_apps (Lazy.force contexts)
  in
  Tabulate.render ppf
    ~header:
      [ "App"; "switches orig"; "fused"; "reuse"; "E fused+DRPM"; "E reuse+DRPM" ]
    ~rows;
  Format.printf
    "loop fusion cannot reproduce the disk clustering (the paper's Section 6.2 remark)@."

let caching_baseline () =
  section "Baseline — power-aware caching (PA-LRU) vs restructuring";
  let rows =
    List.map2
      (fun name ctx ->
        let base = base_trace ctx in
        let layout = Pipeline.layout ctx in
        let disks = layout.Layout.disk_count in
        let base_r = Engine.simulate ~disks Policy.No_pm base in
        let capacity = 2048 (* blocks: a 128 MB storage cache *) in
        (* Per-disk activity on the base trace, for PA-LRU's priorities. *)
        let activity = Array.make disks 0.0 in
        List.iter
          (fun (r : Dp_trace.Request.t) -> activity.(r.disk) <- activity.(r.disk) +. 1.0)
          base;
        let filtered_lru, st_lru =
          Dp_cache.Filter.apply ~cache:(fun () -> Dp_cache.Lru.create ~capacity ()) base
        in
        let filtered_pa, st_pa =
          Dp_cache.Filter.apply
            ~cache:(fun () ->
              Dp_cache.Filter.pa_lru ~capacity
                ~priority_disk:(fun addr -> Layout.disk_of_address layout addr)
                ~disk_activity:(fun d -> activity.(d))
                ())
            base
        in
        let reuse_trace, _ = restructured_trace ctx in
        let combined, _ =
          Dp_cache.Filter.apply
            ~cache:(fun () -> Dp_cache.Lru.create ~capacity ())
            reuse_trace
        in
        let e trace =
          Tabulate.fmt_norm
            ((Engine.simulate ~disks Policy.default_drpm trace).Engine.energy_j
            /. base_r.Engine.energy_j)
        in
        [
          name;
          Printf.sprintf "%.0f%%" (100. *. st_lru.Dp_cache.Filter.hit_rate);
          e filtered_lru;
          Printf.sprintf "%.0f%%" (100. *. st_pa.Dp_cache.Filter.hit_rate);
          e filtered_pa;
          e reuse_trace;
          e combined;
        ])
      ablation_apps (Lazy.force contexts)
  in
  Tabulate.render ppf
    ~header:
      [
        "App (DRPM energy)"; "LRU hits"; "LRU+DRPM"; "PA-LRU hits"; "PA-LRU+DRPM";
        "reuse+DRPM"; "reuse+LRU+DRPM";
      ]
    ~rows;
  Format.printf
    "restructuring composes with caching (the paper: its approach is complementary to \
     the prior research)@."

let transform_ablation () =
  section "Extension — row-outermost loop interchange before reuse scheduling";
  let rows =
    List.map
      (fun name ->
        let app = Option.get (Workloads.by_name name) in
        let ctx = Runner.context app in
        let trace, rounds = restructured_trace ctx in
        let prog', changed =
          Dp_restructure.Transform.normalize_rows_outermost (Pipeline.layout ctx)
            app.App.program
        in
        let ctx' =
          Pipeline.create ~origin:app.App.name ~default:app.App.striping
            ~overrides:app.App.overrides prog'
        in
        let trace', rounds' = restructured_trace ctx' in
        (* Both normalized against the ORIGINAL base. *)
        let disks = Pipeline.disks ctx in
        let base = Engine.simulate ~disks Policy.No_pm (base_trace ctx) in
        let e trace =
          Tabulate.fmt_norm
            ((Engine.simulate ~disks Policy.default_drpm trace).Engine.energy_j
            /. base.Engine.energy_j)
        in
        [
          name;
          string_of_int changed;
          Printf.sprintf "%d" rounds;
          e trace;
          Printf.sprintf "%d" rounds';
          e trace';
        ])
      [ "Visuo"; "SCF 3.0" ]
  in
  Tabulate.render ppf
    ~header:
      [
        "App"; "nests interchanged"; "rounds (reuse)"; "E reuse+DRPM";
        "rounds (ic+reuse)"; "E ic+reuse+DRPM";
      ]
    ~rows;
  Format.printf "@."

let prefetch_baseline () =
  section "Baseline — energy-aware prefetching (burst shaping) vs restructuring";
  let rows =
    List.map2
      (fun name ctx ->
        let base = base_trace ctx in
        let disks = Pipeline.disks ctx in
        let base_r = Engine.simulate ~disks Policy.No_pm base in
        let e trace =
          Tabulate.fmt_norm
            ((Engine.simulate ~disks Policy.default_drpm trace).Engine.energy_j
            /. base_r.Engine.energy_j)
        in
        let bursty d = Dp_cache.Prefetch.apply ~depth:d base in
        let reuse_trace, _ = restructured_trace ctx in
        [
          name;
          Printf.sprintf "%.2f" (Dp_cache.Prefetch.burstiness base);
          Printf.sprintf "%.2f" (Dp_cache.Prefetch.burstiness (bursty 32));
          e (bursty 8);
          e (bursty 32);
          e reuse_trace;
        ])
      ablation_apps (Lazy.force contexts)
  in
  Tabulate.render ppf
    ~header:
      [
        "App (DRPM energy)"; "burstiness base"; "burstiness d=32"; "prefetch d=8";
        "prefetch d=32"; "reuse";
      ]
    ~rows;
  Format.printf
    "bursts lengthen gaps on every disk a little; clustering lengthens one disk's gap a lot@."

let two_speed () =
  section "Ablation — two-speed disks (Carrera et al.) vs full multi-speed DRPM";
  let rows =
    List.map2
      (fun name ctx ->
        let trace, _ = restructured_trace ctx in
        [
          name;
          Tabulate.fmt_norm (normalized ctx (Policy.drpm ~min_rpm:9000 ()) trace);
          Tabulate.fmt_norm (normalized ctx Policy.default_drpm trace);
        ])
      ablation_apps (Lazy.force contexts)
  in
  Tabulate.render ppf
    ~header:[ "App (T-DRPM-s energy)"; "two-speed (floor 9000)"; "multi-speed (3000)" ]
    ~rows;
  Format.printf "@."

let breakdown () =
  section "Analysis — disk-time decomposition (Base vs T-DRPM-s, 1 CPU)";
  let rows =
    List.concat_map
      (fun ((app : App.t), runs) ->
        let split (r : Runner.run) =
          let sum f =
            Array.fold_left (fun acc d -> acc +. f d) 0.0 r.Runner.result.Engine.per_disk
          in
          let busy = sum (fun (d : Engine.disk_stats) -> d.Engine.busy_ms) in
          let idle = sum (fun (d : Engine.disk_stats) -> d.Engine.idle_ms) in
          let standby = sum (fun (d : Engine.disk_stats) -> d.Engine.standby_ms) in
          let trans = sum (fun (d : Engine.disk_stats) -> d.Engine.transition_ms) in
          let total = busy +. idle +. standby +. trans in
          List.map
            (fun v -> Tabulate.fmt_pct (v /. total))
            [ busy; idle; standby; trans ]
        in
        match (List.assoc_opt Version.Base runs, List.assoc_opt Version.T_drpm_s runs) with
        | Some base, Some reuse ->
            [
              (app.App.name ^ " Base") :: split base;
              (app.App.name ^ " T-DRPM-s") :: split reuse;
            ]
        | _ -> [])
      (Lazy.force matrix_1p)
  in
  Tabulate.render ppf ~header:[ "Run"; "busy"; "idle"; "standby"; "transition" ] ~rows;
  Format.printf
    "(DRPM idles at reduced speed, so its savings hide inside the idle share; the busy \
     share is what no disk policy can touch)@."

(* ------------------------------------------------------------------ *)
(* Observability overhead: what a live sink costs the engine over the
   null sink, in time and minor words, on the columnar trace the CLI
   replays.  The null sink is the default, so this section has nothing
   to compare it with; the gate that the null path allocates nothing per
   request is the deterministic [disksim.kernels] test suite. *)

let obs_overhead () =
  section "Observability — sink overhead";
  let app = Option.get (Workloads.by_name "FFT") in
  let ctx = Runner.context app in
  let trace = Pipeline.columns ctx ~procs:1 Pipeline.Original in
  let disks = Pipeline.disks ctx in
  let run obs () = ignore (Engine.replay ~obs ~disks Policy.default_drpm trace) in
  (* Sys.time is CPU time: immune to wall-clock noise from a loaded
     host.  Best-of-7 over 5 inner reps per sink, the sinks alternating
     rep by rep, so drift on a shared host reaches every sink alike. *)
  let reps = 5 in
  let time_best sides =
    let n = Array.length sides in
    let best = Array.make n infinity in
    let spent = Array.make n 0.0 in
    for round = 1 to 7 do
      Array.fill spent 0 n 0.0;
      for rep = 1 to reps do
        for k = 0 to n - 1 do
          let i = if (round + rep) mod 2 = 0 then n - 1 - k else k in
          let t0 = Sys.time () in
          sides.(i) ();
          spent.(i) <- spent.(i) +. (Sys.time () -. t0)
        done
      done;
      Array.iteri
        (fun i t ->
          let per_run = t /. float_of_int reps in
          if per_run < best.(i) then best.(i) <- per_run)
        spent
    done;
    best
  in
  let alloc_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let collect () = fst (Dp_obs.Sink.collect ()) in
  let live () =
    let lv = Dp_obs.Live.create ~disks () in
    Dp_obs.Sink.stream (fun e -> Dp_obs.Live.feed lv e)
  in
  let sinks =
    [|
      ("null (default)", fun () -> Dp_obs.Sink.null);
      ("collect (every event)", collect);
      ("live aggregator", live);
    |]
  in
  run Dp_obs.Sink.null () (* warm up *);
  let times = time_best (Array.map (fun (_, sink) () -> run (sink ()) ()) sinks) in
  let words = Array.map (fun (_, sink) -> alloc_words (run (sink ()))) sinks in
  Tabulate.render ppf
    ~header:[ "sink"; "time (ms/run)"; "minor words/run" ]
    ~rows:
      (Array.to_list
         (Array.mapi
            (fun i (name, _) ->
              [
                name;
                Printf.sprintf "%.2f" (1e3 *. times.(i));
                Printf.sprintf "%.0f" words.(i);
              ])
            sinks));
  for i = 1 to Array.length sinks - 1 do
    Format.printf "%s: %+.1f%% time and %.0f extra minor words over the null sink@."
      (fst sinks.(i))
      (100. *. (times.(i) -. times.(0)) /. times.(0))
      (words.(i) -. words.(0))
  done

(* ------------------------------------------------------------------ *)
(* Pipeline: the memoization win of the shared staged context, and the
   wall-clock effect of fanning the experiment matrix out over domains.
   Wall clock (Unix.gettimeofday, not Sys.time): domain parallelism is
   invisible to CPU time. *)

let pipeline_bench () =
  section "Pipeline — stage memoization and domain-parallel matrix";
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Stage memoization: one context serving a full 4-CPU matrix builds
     the dependence graph once and shares traces between rows. *)
  let app = Option.get (Workloads.by_name "AST") in
  let versions = Version.multi_cpu @ Version.oracle in
  let ctx = Runner.context app in
  let (), t_first = wall (fun () -> ignore (Runner.run ctx ~procs:4 Version.T_drpm_m)) in
  let (), t_rest =
    wall (fun () -> List.iter (fun v -> ignore (Runner.run ctx ~procs:4 v)) versions)
  in
  let st = Pipeline.stats ctx in
  Format.printf
    "one context, %d versions at 4 CPUs: first T-DRPM-m row %.0f ms, the other %d rows \
     %.0f ms total@."
    (List.length versions) (1e3 *. t_first) (List.length versions) (1e3 *. t_rest);
  Format.printf
    "stage builds: graph %d, cluster table %d, streams %d, traces %d, hints %d, summaries \
     %d, references %d; memo hits %d@."
    st.Pipeline.graph_builds st.Pipeline.cluster_builds st.Pipeline.stream_builds
    st.Pipeline.trace_builds st.Pipeline.hint_builds st.Pipeline.summary_builds
    st.Pipeline.reference_builds st.Pipeline.memo_hits;
  let (), t_cold =
    wall (fun () ->
        ignore (Pipeline.trace (Pipeline.of_app app) ~procs:4 Pipeline.Reuse_multi))
  in
  let (), t_warm = wall (fun () -> ignore (Pipeline.trace ctx ~procs:4 Pipeline.Reuse_multi)) in
  Format.printf "T-*-m trace stage: cold %.1f ms, memoized %.3f ms@." (1e3 *. t_cold)
    (1e3 *. t_warm);
  (* Domain-parallel matrix: same rows, jobs=1 vs jobs=4; the JSON must
     be byte-identical (the determinism contract CI enforces).  The
     speedup only materializes with real cores — on a single-core host
     the pool runs inline — so only the mismatch is fatal. *)
  let apps = List.filter_map Workloads.by_name [ "AST"; "RSense 2.0" ] in
  let build jobs =
    Experiments.build_matrix ~apps ~jobs ~procs:4 ~versions:Version.multi_cpu ()
  in
  let m1, t1 = wall (fun () -> build 1) in
  let m4, t4 = wall (fun () -> build 4) in
  let j1 = Dp_harness.Json_out.to_string (Dp_harness.Json_out.of_matrix m1) in
  let j4 = Dp_harness.Json_out.to_string (Dp_harness.Json_out.of_matrix m4) in
  Format.printf "%d-app x %d-version matrix: jobs=1 %.2f s, jobs=4 %.2f s (%.2fx speedup)@."
    (List.length apps) (List.length Version.multi_cpu) t1 t4 (t1 /. t4);
  (let cores = Domain.recommended_domain_count () in
   if cores < 2 then
     Format.printf "(host reports %d core(s); no parallel speedup is possible here)@." cores);
  if String.equal j1 j4 then Format.printf "jobs=4 JSON identical to jobs=1: OK@."
  else begin
    Format.printf "jobs=4 JSON differs from jobs=1: FAILED@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Persistent stage cache: the wall-clock effect of serving the compile
   stages of a full report from the on-disk store.  Three builds of the
   same report matrix: cold (empty store — pays the writes), warm (a new
   process image would see exactly this: fresh contexts, populated
   store), and uncached.  The JSON must be byte-identical across all
   three — the cache is a pure memoization layer. *)

let cache_bench () =
  section "Persistent cache — cold vs warm report matrix";
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let module Cachefs = Dp_cachefs.Cachefs in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpower-bench-cache-%d" (Unix.getpid ()))
  in
  ignore (Cachefs.clear ~dir);
  let build ?cache () =
    Dp_harness.Json_out.to_string
      (Dp_harness.Json_out.of_matrix
         (Experiments.build_matrix ?cache ~procs:4 ~versions:Version.multi_cpu ()))
  in
  let with_cache () =
    match Cachefs.open_store ~dir () with
    | Error msg -> Format.printf "cache store unavailable (%s)@." msg; exit 1
    | Ok cache -> build ~cache ()
  in
  let j_none, t_none = wall (fun () -> build ()) in
  let j_cold, t_cold = wall with_cache in
  let u = Cachefs.usage ~dir in
  (* A fresh store handle and fresh contexts: the next process. *)
  let j_warm, t_warm = wall with_cache in
  Format.printf
    "full report matrix (6 apps x %d versions, 4 CPUs): uncached %.2f s, cold cache \
     %.2f s, warm cache %.2f s (%.1fx)@."
    (List.length Version.multi_cpu) t_none t_cold t_warm (t_none /. t_warm);
  Format.printf "store after cold run: %d entries, %d bytes@." u.Cachefs.entries
    u.Cachefs.bytes;
  ignore (Cachefs.clear ~dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if String.equal j_none j_cold && String.equal j_cold j_warm then
    Format.printf "uncached / cold / warm JSON identical: OK@."
  else begin
    Format.printf "cached JSON differs from uncached: FAILED@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Served array: simulation throughput as the tenant population grows.
   Each run simulates the merged trace once per policy row, so the
   events/sec figure is merged-requests x simulated-rows over the wall
   clock of the whole report (population build, merge, rows, oracle
   bound and accounting included).  Jitter scales the array's busy
   window, not the work, so throughput should hold roughly flat while
   wall time grows with the population. *)

let serve_bench () =
  section "Served array — tenant scaling";
  let module Serve = Dp_serve.Serve in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let jobs = 4 in
  let rows =
    List.map
      (fun tenants ->
        let cfg = Serve.config ~jobs ~tenants ~seed:42 () in
        let report, t = wall (fun () -> Serve.run cfg) in
        let simulated_rows =
          List.length
            (List.filter (fun (r : Serve.row) -> Option.is_some r.Serve.summary)
               report.Serve.rows)
        in
        let events = report.Serve.requests * simulated_rows in
        [
          string_of_int tenants;
          string_of_int report.Serve.requests;
          Printf.sprintf "%.2f" t;
          Printf.sprintf "%.0f" (float_of_int events /. t);
        ])
      [ 10; 100; 1000 ]
  in
  Tabulate.render ppf
    ~header:
      [ "tenants"; "merged requests"; Printf.sprintf "wall (s, jobs=%d)" jobs;
        "simulated events/s" ]
    ~rows;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the compiler passes. *)

let micro () =
  section "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let app = Option.get (Workloads.by_name "FFT") in
  let ctx = Runner.context app in
  let trace = Pipeline.columns ctx ~procs:1 Pipeline.Original in
  let prog = app.App.program in
  let tests =
    [
      Test.make ~name:"dependence-graph build (FFT)"
        (Staged.stage (fun () -> ignore (Concrete.build prog)));
      Test.make ~name:"reuse schedule (FFT)"
        (Staged.stage (fun () ->
             ignore (Reuse.schedule (Pipeline.cluster_table ctx) (Pipeline.graph ctx))));
      Test.make ~name:"trace generation (FFT)"
        (Staged.stage (fun () ->
             let g = Pipeline.graph ctx in
             ignore
               (Generate.trace (Pipeline.layout ctx) prog g.Concrete.instances
                  (Generate.single_stream ~order:(Concrete.original_order g)))));
      Test.make ~name:"simulate DRPM (FFT)"
        (Staged.stage (fun () ->
             ignore (Engine.replay ~disks:8 Policy.default_drpm trace)));
      Test.make ~name:"symbolic per-disk codegen"
        (Staged.stage (fun () ->
             let free =
               Ir.program
                 [ Ir.array_decl ~elem_size:65536 "u" [ 64; 16 ] ]
                 [
                   Ir.nest 0
                     [
                       Ir.loop "i" (Dp_affine.Affine.const 0) (Dp_affine.Affine.const 63);
                       Ir.loop "j" (Dp_affine.Affine.const 0) (Dp_affine.Affine.const 15);
                     ]
                     [
                       Ir.stmt 0
                         [ Ir.read "u" [ Dp_affine.Affine.var "i"; Dp_affine.Affine.var "j" ] ];
                     ];
                 ]
             in
             let layout =
               Layout.make
                 ~default:(Striping.make ~unit_bytes:(16 * 65536) ~factor:8 ~start_disk:0)
                 free
             in
             ignore (Dp_restructure.Symbolic.restructure layout free)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let raw = Benchmark.all cfg [ instance ] test in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Format.printf "%-36s %12.0f ns/run@." name est
        | _ -> Format.printf "%-36s (no estimate)@." name)
      results
  in
  List.iter (fun t -> benchmark (Test.make_grouped ~name:"" [ t ])) tests

(* ------------------------------------------------------------------ *)
(* Persistent-failure domain: serve wall time with media decay, a scrub
   budget and the default deadline armed, against the clean closed loop
   on the same population — what the repair machinery (bad-sector maps,
   remap charges, scrubbing, SLO accounting) costs per request. *)

let repair_bench () =
  section "Repair domain — decay + scrub overhead";
  let module Serve = Dp_serve.Serve in
  let module Fault_model = Dp_faults.Fault_model in
  let module Knobs = Dp_disksim.Knobs in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let row label mk =
    let report, t = wall (fun () -> Serve.run (mk ())) in
    let rows =
      List.length
        (List.filter (fun (r : Serve.row) -> Option.is_some r.Serve.summary)
           report.Serve.rows)
    in
    let events = report.Serve.requests * rows in
    [
      label;
      string_of_int report.Serve.requests;
      Printf.sprintf "%.2f" t;
      Printf.sprintf "%.0f" (float_of_int events /. t);
    ]
  in
  (* Decay arms the default 500 ms deadline ({!Serve.config}). *)
  let decay ?scrub_ms rate =
    let faults = Fault_model.make ~seed:11 ~rate ~classes:[ Fault_model.Media_decay ] () in
    Result.get_ok (Knobs.make ~faults ?scrub_ms ())
  in
  let rows =
    [
      row "clean" (fun () -> Serve.config ~jobs:1 ~tenants:20 ~seed:42 ());
      row "decay 0.05" (fun () ->
          Serve.config ~jobs:1 ~tenants:20 ~seed:42 ~knobs:(decay 0.05) ());
      row "decay 0.05 + scrub 40ms" (fun () ->
          Serve.config ~jobs:1 ~tenants:20 ~seed:42 ~knobs:(decay ~scrub_ms:40.0 0.05) ());
    ]
  in
  Tabulate.render ppf
    ~header:[ "config"; "requests"; "wall s"; "req-rows/s" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Chaos harness: what the differential oracle costs on top of running
   the same paired configurations directly, and what shrinking adds on
   a failing scenario.  CI gates on the oracle staying within 2x of the
   direct runs — the invariants and artifact comparisons must not
   dominate the engine work they check. *)

let chaos_bench () =
  section "Chaos harness — oracle overhead and shrink cost";
  let module Scenario = Dp_chaos.Scenario in
  let module Check = Dp_chaos.Check in
  let module Shrink = Dp_chaos.Shrink in
  (* 48 scenarios: on a 2-core x86-64 host the direct side takes about
     120 ms and the oracle about 160 ms, long enough that a scheduler
     hiccup of a few milliseconds cannot double the ratio. *)
  let scenarios = List.init 48 (fun i -> Scenario.generate (Int64.of_int (i + 1))) in
  let n = List.length scenarios in
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let direct () = List.iter Check.run_direct scenarios in
  let oracle () =
    List.iter
      (fun s ->
        match (Check.run s).Check.violations with
        | [] -> ()
        | v :: _ ->
            Format.printf "oracle violation during bench: %s: %s@." v.Check.check
              v.Check.detail;
            exit 1)
      scenarios
  in
  (* Best of 7, the two sides alternating rep by rep and swapping which
     goes first, so drift on a shared host reaches both alike. *)
  let t_direct = ref infinity and t_oracle = ref infinity in
  let time best f = best := Float.min !best (wall f) in
  for r = 1 to 7 do
    if r mod 2 = 1 then begin
      time t_direct direct;
      time t_oracle oracle
    end
    else begin
      time t_oracle oracle;
      time t_direct direct
    end
  done;
  let t_direct = !t_direct and t_oracle = !t_oracle in
  (* Shrinking only ever runs on failures: measure it on sabotaged
     scenarios, where every one fails and minimizes. *)
  let shrunk = List.filteri (fun i _ -> i < 6) scenarios in
  let t_shrink =
    wall (fun () ->
        List.iter (fun s -> ignore (Shrink.minimize ~sabotage:Check.Energy_skew s)) shrunk)
  in
  let row label k t =
    [
      label; string_of_int k; Printf.sprintf "%.3f" t;
      Printf.sprintf "%.1f" (float_of_int k /. t);
    ]
  in
  Tabulate.render ppf
    ~header:[ "mode"; "scenarios"; "wall s"; "scenarios/s" ]
    ~rows:
      [
        row "paired configs, no oracle" n t_direct;
        row "full oracle" n t_oracle;
        row "shrink (sabotaged)" (List.length shrunk) t_shrink;
      ];
  let overhead = t_oracle /. t_direct in
  if overhead <= 2.0 then
    Format.printf "chaos oracle overhead check: OK (x%.2f <= x2 of direct runs)@." overhead
  else begin
    Format.printf "chaos oracle overhead check: FAILED (x%.2f > x2 of direct runs)@."
      overhead;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Trace codec: throughput and density of the binary format against the
   text rendering of the same trace. *)

let trace_codec_bench () =
  section "Trace codec — text vs binary";
  let module Bin = Dp_trace.Bin in
  let app = Option.get (Workloads.by_name "AST") in
  let trace =
    Bin.quantize (Pipeline.columns (Runner.context app) ~procs:1 Pipeline.Original)
  in
  let n = Trace.length trace in
  let text =
    let b = Buffer.create (1 lsl 20) in
    List.iter
      (fun r -> Buffer.add_string b (Format.asprintf "%a@." Request.pp r))
      (Trace.to_list trace);
    Buffer.contents b
  in
  let data = Bin.encode trace in
  let time_best f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Sys.time () in
      f ();
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let t_enc = time_best (fun () -> ignore (Bin.encode trace)) in
  let t_dec =
    time_best (fun () ->
        match Bin.decode data with Ok _ -> () | Error _ -> assert false)
  in
  let mb bytes = float_of_int bytes /. 1024. /. 1024. in
  Tabulate.render ppf
    ~header:[ "format"; "bytes"; "bytes/record"; "encode MB/s"; "decode MB/s" ]
    ~rows:
      [
        [
          "text"; string_of_int (String.length text);
          Printf.sprintf "%.1f" (float_of_int (String.length text) /. float_of_int n);
          "-"; "-";
        ];
        [
          "binary"; string_of_int (String.length data);
          Printf.sprintf "%.1f" (float_of_int (String.length data) /. float_of_int n);
          Printf.sprintf "%.1f" (mb (String.length data) /. t_enc);
          Printf.sprintf "%.1f" (mb (String.length data) /. t_dec);
        ];
      ];
  Format.printf "binary/text size ratio: %.3f (%d records)@."
    (float_of_int (String.length data) /. float_of_int (String.length text))
    n

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig9a", fig9a);
    ("fig10a", fig10a);
    ("fig9b", fig9b);
    ("fig10b", fig10b);
    ("ablate-cluster", ablate_cluster);
    ("ablate-tpm", ablate_tpm);
    ("ablate-drpm", ablate_drpm);
    ("ablate-stripes", ablate_stripes);
    ("layout-opt", ablate_layout_opt);
    ("proactive-drpm", ablate_proactive_drpm);
    ("fusion", fusion_baseline);
    ("caching", caching_baseline);
    ("transform", transform_ablation);
    ("prefetch", prefetch_baseline);
    ("two-speed", two_speed);
    ("breakdown", breakdown);
    ("obs-overhead", obs_overhead);
    ("pipeline", pipeline_bench);
    ("cache", cache_bench);
    ("serve", serve_bench);
    ("repair", repair_bench);
    ("chaos", chaos_bench);
    ("trace-codec", trace_codec_bench);
    ("micro", micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) when not (List.mem "all" args) -> args
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Format.eprintf "unknown section %s (available: %s)@." name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested
