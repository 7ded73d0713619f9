(* The repository benchmark.

     perf.exe run [--workload W]... [--seed S] [--seconds T] [--reps N]
                  [--trace 0|1|both] [--out DIR]
     perf.exe compare A B
     perf.exe selftest GOLDEN BENCHMARK_JSON

   run times the real CLI end to end (spawning _build/default/bin/dpcc.exe
   one process at a time), then makes one traced in-process pass over the
   same inputs for the per-layer numbers.  It must be started from the
   repository root; bench/perf/run.sh builds everything first.  See
   bench/perf/README.md. *)

module J = Dp_harness.Json_out
module Version = Dp_harness.Version
module Experiments = Dp_harness.Experiments
module Runner = Dp_harness.Runner

type workload = Report_cold | Report_warm | Serve | Chaos

let workloads = [ Report_cold; Report_warm; Serve; Chaos ]

let name = function
  | Report_cold -> "report-cold"
  | Report_warm -> "report-warm"
  | Serve -> "serve"
  | Chaos -> "chaos"

(* End-to-end metrics with the regression bound of each: a change's
   median regresses when it exceeds the parent's x (1 + rel) + abs. *)
let e2e =
  [
    ("wall_s", "s", 0.10, 0.);
    ("cpu_s", "s", 0.10, 0.);
    ("peak_rss_mb", "MB", 0.05, 2.);
    ("setup_s", "s", 0.10, 0.5);
    ("fail_frac", "ratio", 0., 0.);
  ]

let layer_metrics =
  let busy names = List.map (fun n -> (n ^ ".busy_s", "s")) names in
  busy [ "lang.load"; "dependence.graph" ]
  @ [ ("dependence.graph.alloc_mw", "Mw") ]
  @ busy
      (List.map (fun m -> "restructure.streams." ^ m) [ "original"; "single"; "multi" ])
  @ [ ("restructure.streams.alloc_mw", "Mw"); ("restructure.rounds", "count") ]
  @ busy [ "trace.stage.original"; "trace.stage.single"; "trace.stage.multi" ]
  @ [ ("trace.stage.alloc_mw", "Mw") ]
  @ busy [ "trace.summarize" ]
  @ [
      ("trace.requests", "count");
      ("cachefs.hits", "count");
      ("cachefs.misses", "count");
      ("cachefs.hit_ratio", "ratio");
      ("cachefs.write_failures", "count");
      ("cachefs.store_mb", "MB");
    ]
  @ busy [ "oracle.hints"; "oracle.bound" ]
  @ busy
      (List.map
         (fun p -> "disksim.simulate." ^ p)
         [
           "base"; "tpm"; "drpm"; "t-tpm-s"; "t-drpm-s"; "t-tpm-m"; "t-drpm-m";
           "offline-tpm"; "offline-drpm"; "online";
         ])
  @ [
      ("disksim.simulate.alloc_mw", "Mw");
      ("disksim.requests", "count");
      ("disksim.events_per_s", "1/s");
    ]
  @ busy [ "serve.population"; "serve.mux"; "serve.account" ]
  @ [ ("serve.requests", "count") ]
  @ busy [ "harness.figures"; "harness.json"; "chaos.generate"; "chaos.check" ]
  @ [
      ("chaos.check.p50_ms", "ms");
      ("chaos.check.p98_ms", "ms");
      ("chaos.engine_runs", "count");
      ("chaos.requests", "count");
      ("chaos.findings", "count");
      ("traced.wall_s", "s");
      ("traced.residual_s", "s");
    ]

(* Each layer's share of the traced wall time. *)
let share_layers =
  [
    "lang"; "dependence"; "restructure"; "trace"; "oracle"; "disksim"; "serve"; "harness";
    "chaos";
  ]

let shares = List.map (fun l -> (l ^ ".busy_share", "ratio")) share_layers

(* What the one-line result carries.  fail_frac rides as attempted and
   failed.  Per layer: the measures defined on every workload — the
   traced wall and residual, the layer shares, the counts — since a
   layer absent from a workload has no busy time there at all. *)
let e2e_json = [ "wall_s"; "cpu_s"; "peak_rss_mb"; "setup_s" ]

let layer_json =
  [ "traced.wall_s"; "traced.residual_s" ]
  @ List.map fst shares
  @ [
      "dependence.graph.alloc_mw"; "restructure.streams.alloc_mw"; "trace.stage.alloc_mw";
      "disksim.simulate.alloc_mw"; "restructure.rounds"; "trace.requests"; "cachefs.hits";
      "cachefs.misses"; "cachefs.hit_ratio"; "cachefs.write_failures"; "cachefs.store_mb";
      "disksim.requests"; "disksim.events_per_s"; "serve.requests"; "chaos.engine_runs";
      "chaos.requests"; "chaos.findings";
    ]

let unit_of m =
  match List.assoc_opt m (layer_metrics @ shares) with
  | Some u -> u
  | None -> List.fold_left (fun acc (n, u, _, _) -> if n = m then u else acc) "?" e2e

let golden_path = "bench/perf/golden/outputs.txt"
let dpcc_path = "_build/default/bin/dpcc.exe"
let setup_reps = 5

(* --- one run --- *)

type state = {
  w : workload;
  dir : string;
  mutable setup : float list;
  mutable passes : Cli.pass list;  (** newest first *)
  mutable cache : string option;  (** report-warm: the filled store *)
  mutable traced : (Spans.t * Traced.outcome) option;
  mutable matrix : Experiments.matrix;  (** report-*: the traced pass's, for fidelity *)
  mutable problems : string list;
}

(* A fresh workload directory, the digest of the binary under test (it
   names what was measured in results.json) and one --version spawn,
   which faults the binary in: what every pass then finds ready. *)
let prepare env st =
  let t0 = Proc.now () in
  Proc.fresh_dir st.dir;
  env.Cli.dpcc_md5 <- Digest.to_hex (Digest.file env.Cli.dpcc);
  let stdout = Filename.concat st.dir "version.out" in
  let o = Cli.spawn env ~name:"version" ~stdout [ "--version" ] in
  if o.Proc.code <> 0 then failwith "dpcc --version failed";
  Proc.now () -. t0

let add_pass (p : Cli.pass) = List.map (fun s -> s +. p.Cli.wall_s)

(* report-warm's store: filled by a cold pass of its own, unless a
   report-cold pass of this run already handed one over. *)
let warm_cache env st =
  match st.cache with
  | Some c -> c
  | None ->
      let c = Filename.concat st.dir "cache" in
      Proc.fresh_dir c;
      let p = Cli.report env ~workload:"report-warm fill" ~warm:false ~cache_dir:c in
      if p.Cli.failed > 0 then st.problems <- "the cold fill failed" :: st.problems;
      st.setup <- add_pass p st.setup;
      st.cache <- Some c;
      c

let pass env ~seed ~chaos_seed states st =
  match st.w with
  | Report_cold ->
      let c = Filename.concat st.dir (Printf.sprintf "cache-%d" (List.length st.passes)) in
      Proc.fresh_dir c;
      let p = Cli.report env ~workload:"report-cold" ~warm:false ~cache_dir:c in
      (match List.find_opt (fun s -> s.w = Report_warm && s.cache = None) states with
      | Some warm when p.Cli.failed = 0 ->
          warm.cache <- Some c;
          warm.setup <- add_pass p warm.setup
      | _ -> Proc.rm_rf c);
      p
  | Report_warm ->
      Cli.report env ~workload:"report-warm" ~warm:true ~cache_dir:(warm_cache env st)
  | Serve -> Cli.serve env ~seed
  | Chaos -> Cli.chaos env ~seed:chaos_seed

let traced env ~golden ~seed ~chaos_seed st =
  let sp = Spans.create () in
  let root f = Spans.record sp ~item:(name st.w) "traced" f in
  let outcome =
    match st.w with
    | Report_cold | Report_warm ->
        let warm = st.w = Report_warm in
        let cache_dir =
          if warm then warm_cache env st
          else begin
            let c = Filename.concat st.dir "traced-cache" in
            Proc.fresh_dir c;
            c
          end
        in
        let matrix, o = root (fun () -> Traced.report sp ~golden ~warm ~cache_dir) in
        st.matrix <- matrix;
        o
    | Serve ->
        (* Without a golden output the replica needs the CLI's bytes. *)
        if st.passes = [] && Golden.find golden "serve" (string_of_int seed) = None then
          if (Cli.serve env ~seed).Cli.failed > 0 then
            st.problems <- "the reference serve run failed" :: st.problems;
        root (fun () -> Traced.serve sp ~golden ~seed)
    | Chaos -> root (fun () -> Traced.chaos sp ~golden ~seed:chaos_seed)
  in
  st.traced <- Some (sp, outcome);
  st.problems <- st.problems @ outcome.Traced.problems

(* --- metrics --- *)

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let strip ~suffix s = String.sub s 0 (String.length s - String.length suffix)

let e2e_samples st = function
  | "wall_s" -> List.map (fun p -> p.Cli.wall_s) st.passes
  | "cpu_s" -> List.map (fun p -> p.Cli.cpu_s) st.passes
  | "peak_rss_mb" -> List.map (fun p -> p.Cli.rss_mb) st.passes
  | "setup_s" -> st.setup
  | "fail_frac" ->
      List.map
        (fun p -> float_of_int p.Cli.failed /. float_of_int p.Cli.attempted)
        st.passes
  | m -> invalid_arg ("e2e metric " ^ m)

(* (value, n, q1, q3) of a per-layer metric on one traced pass. *)
let layer_value sp m =
  let single v = (v, 1, v, v) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let checks_ms () = List.map (fun d -> d *. 1000.) (Spans.durations sp "chaos.check") in
  match m with
  | "traced.wall_s" -> single (Spans.wall sp)
  | "traced.residual_s" -> single (Spans.residual sp)
  | "cachefs.hit_ratio" ->
      let h = Spans.counted sp "cachefs.hits" in
      single (ratio h (h +. Spans.counted sp "cachefs.misses"))
  | "disksim.events_per_s" ->
      single (ratio (Spans.counted sp "disksim.requests") (Spans.layer_busy sp "disksim"))
  | "chaos.check.p50_ms" | "chaos.check.p98_ms" -> (
      match checks_ms () with
      | [] -> single 0.
      | xs ->
          let q1, med, q3 = Stats.quartiles xs in
          let v =
            if m = "chaos.check.p50_ms" then med
            else match Stats.tail xs with Some (_, v) -> v | None -> 0.
          in
          (v, List.length xs, q1, q3))
  | _ when ends_with ~suffix:".busy_share" m ->
      single (ratio (Spans.layer_busy sp (strip ~suffix:".busy_share" m)) (Spans.wall sp))
  | _ when ends_with ~suffix:".busy_s" m ->
      single (Spans.busy sp (strip ~suffix:".busy_s" m))
  | _ when ends_with ~suffix:".alloc_mw" m ->
      single (Spans.words sp (strip ~suffix:".alloc_mw" m) /. 1e6)
  | _ -> single (Spans.counted sp m)

let all_layer_names = List.map fst (layer_metrics @ shares)

(* --- output --- *)

(* One line of JSON with every float at full precision. *)
let one_line j =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_margin ppf 1_000_000;
  J.pp_precise ppf j;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let print_metric w m unit (v, n, q1, q3) =
  Printf.printf "%s %s %.6g %s (n=%d, q1=%.6g, q3=%.6g)\n" w m v unit n q1 q3

(* Informational: Table 2 request counts and base energy against the
   paper's, and the Fig. 9b / 10b averages against the paper's. *)
let paper_averages =
  [
    (Version.Drpm, None, Some 16.8);
    (Version.T_tpm_s, Some 3.84, Some 4.7);
    (Version.T_drpm_s, Some 10.66, Some 8.7);
    (Version.T_tpm_m, Some 11.04, Some 2.8);
    (Version.T_drpm_m, Some 18.04, Some 5.0);
  ]

let fidelity matrix =
  let pct = function Some x -> Printf.sprintf "%.2f%%" x | None -> "n/a" in
  let number = Option.fold ~none:J.Null ~some:(fun x -> J.Float x) in
  let apps =
    List.map2
      (fun ((_ : Dp_workloads.App.t), runs) (paper : Dp_workloads.App.t) ->
        let base = List.assoc Version.Base runs in
        let requests = base.Runner.summary.Dp_trace.Generate.requests in
        let energy = base.Runner.result.Dp_disksim.Engine.energy_j in
        Printf.printf
          "fidelity %-10s requests %d (paper %d)  base energy %.1f J at 4 procs (paper \
           %.1f J)\n"
          paper.Dp_workloads.App.name requests paper.Dp_workloads.App.paper_requests energy
          paper.Dp_workloads.App.paper_base_energy_j;
        J.Obj
          [
            ("app", J.String paper.Dp_workloads.App.name);
            ("requests", J.Int requests);
            ("paper_requests", J.Int paper.Dp_workloads.App.paper_requests);
            ("base_energy_j", J.Float energy);
            ("paper_base_energy_j", J.Float paper.Dp_workloads.App.paper_base_energy_j);
          ])
      matrix (Dp_workloads.Workloads.all ())
  in
  let averages =
    List.map
      (fun (v, saving, degradation) ->
        let s = 100. *. Experiments.average_energy_saving matrix v in
        let d = 100. *. Experiments.average_perf_degradation matrix v in
        Printf.printf
          "fidelity %-10s Fig. 9b saving %.2f%% (paper %s)  Fig. 10b degradation %.2f%% \
           (paper %s)\n"
          (Version.name v) s (pct saving) d (pct degradation);
        J.Obj
          [
            ("version", J.String (Version.name v));
            ("saving_pct", J.Float s);
            ("paper_saving_pct", number saving);
            ("degradation_pct", J.Float d);
            ("paper_degradation_pct", number degradation);
          ])
      paper_averages
  in
  J.Obj [ ("table2", J.List apps); ("fig9b_fig10b", J.List averages) ]

let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let report ~out ~seed ~chaos_seed ~rounds ~dpcc_md5 states =
  let multi = List.length states > 1 in
  let key st m = if multi then name st.w ^ ":" ^ m else m in
  let tsv = Buffer.create 4096 in
  Buffer.add_string tsv "workload\tkind\tmetric\tunit\tvalue\n";
  let sample st kind m v =
    Buffer.add_string tsv
      (Printf.sprintf "%s\t%s\t%s\t%s\t%.17g\n" (name st.w) kind m (unit_of m) v)
  in
  let json_metrics = ref [] in
  let emit_json st m v =
    let entry = J.Obj [ ("value", J.Float v); ("unit", J.String (unit_of m)) ] in
    json_metrics := (key st m, entry) :: !json_metrics
  in
  let workload_json st =
    let e2e_fields =
      (* Only timed runs report end to end; a traced-only run's set-up
         is not the measured phase's. *)
      List.filter_map
        (fun (m, unit, _, _) ->
          match e2e_samples st m with
          | xs when st.passes <> [] ->
              let q1, med, q3 = Stats.quartiles xs in
              print_metric (name st.w) m unit (med, List.length xs, q1, q3);
              List.iter (sample st "e2e" m) xs;
              if List.mem m e2e_json then emit_json st m med;
              Some
                ( m,
                  J.Obj
                    [
                      ("median", J.Float med);
                      ("q1", J.Float q1);
                      ("q3", J.Float q3);
                      ("n", J.Int (List.length xs));
                      ("unit", J.String unit);
                      ("samples", J.List (List.map (fun x -> J.Float x) xs));
                    ] )
          | _ -> None)
        e2e
    in
    let layer_fields, spans =
      match st.traced with
      | None -> ([], J.List [])
      | Some (sp, _) ->
          ( List.map
              (fun m ->
                let ((v, n, q1, q3) as r) = layer_value sp m in
                print_metric (name st.w) m (unit_of m) r;
                sample st "layer" m v;
                if List.mem m layer_json then emit_json st m v;
                ( m,
                  J.Obj
                    [
                      ("value", J.Float v);
                      ("n", J.Int n);
                      ("q1", J.Float q1);
                      ("q3", J.Float q3);
                      ("unit", J.String (unit_of m));
                    ] ))
              all_layer_names,
            Spans.to_json sp )
    in
    J.Obj
      [
        ("name", J.String (name st.w));
        ("e2e", J.Obj e2e_fields);
        ("layers", J.Obj layer_fields);
        ("spans", spans);
      ]
  in
  let workloads_json = List.map workload_json states in
  let fid =
    match List.find_opt (fun st -> st.matrix <> []) states with
    | Some st -> fidelity st.matrix
    | None -> J.Null
  in
  let problems = List.concat_map (fun st -> st.problems) states in
  List.iter (fun p -> Printf.printf "problem: %s\n" p) problems;
  let sum f =
    List.fold_left
      (fun acc st ->
        acc
        + List.fold_left (fun a p -> a + f (`Pass p)) 0 st.passes
        + match st.traced with Some (_, o) -> f (`Traced o) | None -> 0)
      0 states
  in
  let attempted =
    sum (function `Pass p -> p.Cli.attempted | `Traced o -> o.Traced.attempted)
  in
  let failed = sum (function `Pass p -> p.Cli.failed | `Traced o -> o.Traced.failed) in
  let correct = problems = [] && failed = 0 && attempted > 0 in
  write (Filename.concat out "samples.tsv") (Buffer.contents tsv);
  write (Filename.concat out "results.json")
    (J.to_string
       (J.Obj
          [
            ("dpcc_md5", J.String dpcc_md5);
            ("seed", J.Int seed);
            ("chaos_seed", J.Int chaos_seed);
            ("rounds", J.Int rounds);
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("problems", J.List (List.map (fun p -> J.String p) problems));
            ("workloads", J.List workloads_json);
            ("fidelity", fid);
          ])
    ^ "\n");
  let tracks =
    List.filter_map (fun st -> Option.map (fun (sp, _) -> (name st.w, sp)) st.traced) states
  in
  if tracks <> [] then
    write (Filename.concat out "trace.json") (J.to_string (Spans.chrome tracks) ^ "\n");
  Printf.printf "results: %s/results.json, samples: %s/samples.tsv%s\n" out out
    (if tracks = [] then "" else Printf.sprintf ", trace: %s/trace.json" out);
  print_endline
    (one_line
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.rev !json_metrics));
          ]));
  if correct then 0 else 1

let run selected seed seconds reps trace out =
  let selected =
    if selected = [] then workloads
    else List.filter (fun w -> List.mem w selected) workloads
  in
  if not (Sys.file_exists dpcc_path && Sys.file_exists golden_path) then begin
    prerr_endline
      "perf: run from the repository root after building bin/dpcc.exe (bench/perf/run.sh \
       does both)";
    2
  end
  else begin
    let golden = Golden.load golden_path in
    (* A green soak seed stands for itself; any other seed picks one. *)
    let chaos_seed =
      let seeds = Golden.chaos_seeds golden in
      if List.mem seed seeds then seed
      else List.nth seeds (abs seed mod List.length seeds)
    in
    let scratch = Filename.concat out "scratch" in
    Proc.fresh_dir scratch;
    let env =
      {
        Cli.dpcc = Filename.concat (Sys.getcwd ()) dpcc_path;
        scratch;
        keep = Filename.concat out "mismatch";
        golden;
        spawned = 0;
        dpcc_md5 = "";
      }
    in
    let states =
      List.map
        (fun w ->
          {
            w;
            dir = Filename.concat scratch (name w);
            setup = [];
            passes = [];
            cache = None;
            traced = None;
            matrix = [];
            problems = [];
          })
        selected
    in
    let timed = trace <> "1" and traced_pass = trace <> "0" in
    let rounds = ref 0 in
    Fun.protect
      ~finally:(fun () -> Proc.rm_rf scratch)
      (fun () ->
        Printf.printf "perf: seed %d (chaos soak seed %d), nproc %d\n%!" seed chaos_seed
          (Domain.recommended_domain_count ());
        List.iter
          (fun st ->
            let reps = if st.w = Report_warm then 1 else setup_reps in
            st.setup <- List.init reps (fun _ -> prepare env st);
            (* Without a report-cold pass to adopt, fill the store now. *)
            let cold_runs = timed && List.exists (fun s -> s.w = Report_cold) states in
            if st.w = Report_warm && not cold_runs then ignore (warm_cache env st))
          states;
        if timed then begin
          let t0 = Proc.now () in
          while !rounds < reps || Proc.now () -. t0 < seconds do
            incr rounds;
            List.iter
              (fun st ->
                let p = pass env ~seed ~chaos_seed states st in
                if p.Cli.rss_mb <= Proc.own_peak_mb () then
                  st.problems <-
                    Printf.sprintf "%s: peak RSS %.1f MB is not above perf.exe's own"
                      (name st.w) p.Cli.rss_mb
                    :: st.problems;
                Printf.eprintf "perf: %s round %d: %.3f s wall, %d/%d failed\n%!"
                  (name st.w) !rounds p.Cli.wall_s p.Cli.failed p.Cli.attempted;
                st.passes <- p :: st.passes)
              states
          done
        end;
        if traced_pass then
          List.iter
            (fun st ->
              traced env ~golden ~seed ~chaos_seed st;
              Printf.eprintf "perf: %s traced pass done\n%!" (name st.w))
            states;
        report ~out ~seed ~chaos_seed ~rounds:!rounds ~dpcc_md5:env.Cli.dpcc_md5 states)
  end

(* --- compare --- *)

let read_tsv path =
  let path = if Sys.is_directory path then Filename.concat path "samples.tsv" else path in
  List.filter_map
    (fun line ->
      match String.split_on_char '\t' line with
      | [ w; kind; m; _; v ] when kind = "e2e" -> Some ((w, m), float_of_string v)
      | _ -> None)
    (String.split_on_char '\n' (Proc.read_file path))

let compare a b =
  let sa = read_tsv a and sb = read_tsv b in
  let values s k = List.filter_map (fun (k', v) -> if k' = k then Some v else None) s in
  let keys = List.sort_uniq Stdlib.compare (List.map fst sa) in
  let ordered =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (m, _, rel, abs) ->
            if List.mem (name w, m) keys then Some (name w, m, rel, abs) else None)
          e2e)
      workloads
  in
  let regressed = ref false in
  List.iter
    (fun (w, m, rel, abs) ->
      match (values sa (w, m), values sb (w, m)) with
      | [], _ | _, [] -> ()
      | xs, ys ->
          let q1a, ma, q3a = Stats.quartiles xs and q1b, mb, q3b = Stats.quartiles ys in
          let v = Stats.verdict ~rel ~abs xs ys in
          if v = Stats.Regressed then regressed := true;
          Printf.printf
            "%-12s %-12s A %.4g [%.4g, %.4g] n=%d  B %.4g [%.4g, %.4g] n=%d  %+.1f%%  %s\n"
            w m ma q1a q3a (List.length xs) mb q1b q3b (List.length ys)
            (if ma = 0. then 0. else 100. *. (mb -. ma) /. ma)
            (Stats.verdict_name v))
    ordered;
  if !regressed then 1 else 0

(* --- selftest (dune runtest): no workload runs --- *)

let selftest golden_file benchmark_json =
  let failures = ref 0 in
  let check what ok =
    if not ok then begin
      incr failures;
      Printf.printf "selftest FAILED: %s\n" what
    end
  in
  let close a b = Float.abs (a -. b) < 1e-9 in
  let q3 (a, b, c) (a', b', c') = close a a' && close b b' && close c c' in
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let one_to n = List.init n (fun i -> float_of_int (i + 1)) in
  check "quartiles 1..10" (q3 (Stats.quartiles (one_to 10)) (2.75, 5.5, 8.25));
  check "quartiles of two" (q3 (Stats.quartiles [ 3.; 1. ]) (0.5, 2., 3.5));
  check "quartiles of five" (q3 (Stats.quartiles [ 5.; 1.; 4.; 2.; 3. ]) (1.5, 3., 4.5));
  check "quartiles of one" (q3 (Stats.quartiles [ 7. ]) (7., 7., 7.));
  check "quartiles of four" (q3 (Stats.quartiles [ 4.; 1.; 3.; 2. ]) (1.25, 2.5, 3.75));
  check "no tail under 11" (Stats.tail (List.init 10 float_of_int) = None);
  check "tail of 11" (Stats.tail (one_to 11) = Some (9, 1.));
  check "tail of 500" (Stats.tail (one_to 500) = Some (98, 490.));
  let verdict xs ys = Stats.verdict ~rel:0.10 ~abs:0. xs ys in
  check "verdict ok" (verdict [ 10.; 10.1; 9.9 ] [ 10.5; 10.6; 10.4 ] = Stats.Ok);
  check "verdict regressed"
    (verdict [ 10.; 10.1; 9.9 ] [ 11.5; 11.6; 11.4 ] = Stats.Regressed);
  check "verdict unresolved"
    (verdict [ 8.; 10.; 12.; 14. ] [ 9.; 11.; 13.; 15. ] = Stats.Unresolved);
  check "verdict all better" (verdict [ 8.; 10.; 12.; 14. ] [ 1.; 3.; 5.; 7. ] = Stats.Ok);
  check "verdict abs bound"
    (Stats.verdict ~rel:0.05 ~abs:2. [ 18.; 18. ] [ 19.8; 19.8 ] = Stats.Ok);
  let exact = Stats.verdict ~rel:0. ~abs:0. in
  check "fail_frac regressed" (exact [ 0.; 0. ] [ 0.1; 0.1 ] = Stats.Regressed);
  check "fail_frac flaky" (exact [ 0.; 0. ] [ 0.1; 0. ] = Stats.Unresolved);
  let g = Golden.parse "# c\nreport ast abc\nchaos 7 100\nchaos 3 90\n" in
  check "golden value" (Golden.matches g ~kind:"report" ~key:"ast" "abc");
  check "golden mismatch" (not (Golden.matches g ~kind:"report" ~key:"ast" "abd"));
  check "first seen" (Golden.matches g ~kind:"serve" ~key:"1" "x");
  check "first seen again" (Golden.matches g ~kind:"serve" ~key:"1" "x");
  check "first seen differs" (not (Golden.matches g ~kind:"serve" ~key:"1" "y"));
  check "chaos seeds in order" (Golden.chaos_seeds g = [ 7; 3 ]);
  check "malformed golden"
    (match Golden.parse "report ast" with _ -> false | exception Failure _ -> true);
  let real = Golden.load golden_file in
  check "six report goldens"
    (List.for_all (fun a -> Golden.find real "report" a <> None) Cli.apps);
  check "serve 42 golden" (Golden.find real "serve" "42" <> None);
  check "chaos 42 green" (List.mem 42 (Golden.chaos_seeds real));
  (* BENCHMARK.json must name exactly the workloads and metrics run prints. *)
  let text = Proc.read_file benchmark_json in
  let rec names i acc =
    match Str.search_forward (Str.regexp {|"name": *"\([^"]*\)"|}) text i with
    | exception Not_found -> List.rev acc
    | _ -> names (Str.match_end ()) (Str.matched_group 1 text :: acc)
  in
  let expected = List.map name workloads @ e2e_json @ layer_json in
  check "BENCHMARK.json names"
    (List.sort Stdlib.compare (names 0 []) = List.sort Stdlib.compare expected);
  check "layer json names are metrics"
    (List.for_all (fun m -> List.mem m all_layer_names) layer_json);
  check "49 layer metrics" (List.length layer_metrics = 49);
  (* The result line of all four workloads runs to ~15 kB. *)
  let wide =
    let entry = J.Obj [ ("value", J.Float 1.5); ("unit", J.String "s") ] in
    J.Obj (List.init 400 (fun i -> (string_of_int i, entry)))
  in
  check "one line" (not (String.contains (one_line wide) '\n'));
  if !failures = 0 then print_endline "perf selftest: ok";
  if !failures = 0 then 0 else 1

(* --- command line --- *)

open Cmdliner

let run_cmd =
  let workload =
    Arg.(
      value
      & opt_all (enum (List.map (fun w -> (name w, w)) workloads)) []
      & info [ "workload" ] ~docv:"W"
          ~doc:"A workload to run (repeatable; default: all four)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed") in
  let seconds =
    Arg.(
      value & opt float 0.
      & info [ "seconds" ] ~docv:"T"
          ~doc:"Keep starting timed rounds until T seconds have passed (see --reps)")
  in
  let reps =
    Arg.(value & opt int 3 & info [ "reps" ] ~docv:"N" ~doc:"Run at least N timed rounds")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", "0"); ("1", "1"); ("both", "both") ]) "both"
      & info [ "trace" ] ~docv:"0|1|both"
          ~doc:"0: timed CLI rounds only; 1: the traced pass only; both (default)")
  in
  let out =
    Arg.(value & opt string "_perf" & info [ "out" ] ~docv:"DIR" ~doc:"Results directory")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Time the workloads end to end, then trace them layer by layer")
    Term.(const run $ workload $ seed $ seconds $ reps $ trace $ out)

let compare_cmd =
  let side n = Arg.(required & pos n (some string) None & info [] ~docv:"SAMPLES") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare two runs' samples.tsv (or their directories), metric by metric")
    Term.(const compare $ side 0 $ side 1)

let selftest_cmd =
  let file n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "selftest" ~doc:"Check the statistics, verdicts and golden matching")
    Term.(const selftest $ file 0 "GOLDEN" $ file 1 "BENCHMARK_JSON")

let () =
  let info = Cmd.info "perf" ~doc:"The repository benchmark" in
  exit (Cmd.eval' (Cmd.group info [ run_cmd; compare_cmd; selftest_cmd ]))
