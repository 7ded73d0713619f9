(* The staged pipeline: the domain pool's determinism, the stage
   memoization contract, and golden equivalence between the CLI path
   (dpcc trace) and the Runner path (Pipeline stages) for every matrix
   version at 1, 4 and 8 processors. *)

module Pipeline = Dp_pipeline.Pipeline
module Domain_pool = Dp_util.Domain_pool
module Version = Dp_harness.Version
module Experiments = Dp_harness.Experiments
module Json_out = Dp_harness.Json_out
module Request = Dp_trace.Request
module Policy = Dp_disksim.Policy

let check = Alcotest.check

let programs_dir =
  let dir = "examples/programs" in
  if Sys.file_exists dir then dir else Filename.concat ".." dir

let transpose = Filename.concat programs_dir "transpose.dpl"

(* --- Domain_pool --- *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      check
        Alcotest.(list int)
        (Printf.sprintf "jobs=%d preserves input order" jobs)
        expect
        (Domain_pool.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 7 ]

let test_pool_edges () =
  check Alcotest.(list int) "empty input" [] (Domain_pool.map ~jobs:4 Fun.id []);
  check Alcotest.(list int) "singleton input" [ 7 ] (Domain_pool.map ~jobs:4 Fun.id [ 7 ]);
  check Alcotest.bool "jobs < 1 rejected" true
    (match Domain_pool.map ~jobs:0 Fun.id [ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The clamp: asked for 64 domains, the pool runs no more than the
   hardware recommends.  Each task sleeps so that every spawned domain
   gets to claim one. *)
let test_pool_clamp () =
  let xs = List.init 64 Fun.id in
  let results =
    Domain_pool.map ~jobs:64
      (fun x ->
        Unix.sleepf 0.001;
        (x, (Domain.self () :> int)))
      xs
  in
  check Alcotest.(list int) "input order" xs (List.map fst results);
  let domains = List.sort_uniq Int.compare (List.map snd results) in
  check Alcotest.bool
    (Printf.sprintf "%d domains ran, at most %d recommended" (List.length domains)
       (Domain.recommended_domain_count ()))
    true
    (List.length domains <= Domain.recommended_domain_count ())

exception Boom of int

let test_pool_first_error_wins () =
  let xs = List.init 20 (fun i -> i + 1) in
  let f x = if x mod 3 = 0 then raise (Boom x) else x in
  check Alcotest.int "first failure in input order" 3
    (match Domain_pool.map ~jobs:4 f xs with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom n -> n)

(* Supervision property: with any subset of tasks failing, the pool
   still fills every non-failing slot (no poisoning, no abandoned
   work), and the exception that escapes is the first in input order —
   however many failed, and whichever failed first in wall time. *)
let test_pool_multi_failure =
  let module Splitmix = Dp_util.Splitmix in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"pool: multi-failure ordering and sibling isolation"
       QCheck2.Gen.(pair (int_range 1 40) (int_bound 100_000))
       (fun (n, seed) ->
         let rng = Splitmix.create seed in
         let fails = Array.init n (fun _ -> Splitmix.bool rng ~p:0.3) in
         if not (Array.exists Fun.id fails) then fails.(seed mod n) <- true;
         let first =
           let rec go i = if fails.(i) then i else go (i + 1) in
           go 0
         in
         let filled = Array.make n false in
         let f i =
           if fails.(i) then raise (Boom i)
           else begin
             filled.(i) <- true;
             i
           end
         in
         match Domain_pool.map ~jobs:4 f (List.init n Fun.id) with
         | _ -> QCheck2.Test.fail_reportf "no exception escaped"
         | exception Boom k ->
             if k <> first then
               QCheck2.Test.fail_reportf "raised Boom %d, first failing input is %d" k first;
             Array.iteri
               (fun i ok ->
                 if ok = fails.(i) then
                   QCheck2.Test.fail_reportf "slot %d %s" i
                     (if fails.(i) then "filled but should have failed"
                      else "abandoned by the pool"))
               filled;
             true))

let test_pool_transient_retry () =
  (* Two transient failures per task are absorbed by the default retry
     budget... *)
  let attempts = Array.make 5 0 in
  let f i =
    attempts.(i) <- attempts.(i) + 1;
    if attempts.(i) <= 2 then raise (Domain_pool.Transient (Boom i)) else i
  in
  check
    Alcotest.(list int)
    "transient failures retried to success" [ 0; 1; 2; 3; 4 ]
    (Domain_pool.map ~jobs:2 f (List.init 5 Fun.id));
  (* ...but an exhausted budget surfaces the inner exception, not the
     Transient wrapper. *)
  check Alcotest.int "exhausted retries re-raise the inner exception" 42
    (match
       Domain_pool.map ~retries:1 ~jobs:2 (fun _ -> raise (Domain_pool.Transient (Boom 42))) [ 0 ]
     with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom n -> n);
  check Alcotest.bool "negative retries rejected" true
    (match Domain_pool.map ~retries:(-1) ~jobs:1 Fun.id [ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- stage memoization --- *)

let test_memo_sharing () =
  let ctx = Pipeline.load transpose in
  let versions = Version.multi_cpu @ Version.oracle in
  List.iter (fun v -> ignore (Dp_harness.Runner.run ctx ~procs:4 v)) versions;
  let st = Pipeline.stats ctx in
  check Alcotest.int "graph built once for 9 rows" 1 st.Pipeline.graph_builds;
  (* Both restructured modes share one cluster table per policy. *)
  check Alcotest.int "cluster table built once for 9 rows" 1 st.Pipeline.cluster_builds;
  (* Three execution-order families -> three stream/trace builds. *)
  check Alcotest.int "one streams build per mode" 3 st.Pipeline.stream_builds;
  check Alcotest.int "one trace build per mode" 3 st.Pipeline.trace_builds;
  (* Only the proactive-TPM rows carry hints: (single, Tpm) and
     (multi, Tpm). *)
  check Alcotest.int "hint streams built per (mode, space)" 2 st.Pipeline.hint_builds;
  check Alcotest.bool "repeat lookups hit the memo" true (st.Pipeline.memo_hits > 0);
  (* A second clustering policy is a second table, shared by its modes. *)
  List.iter
    (fun mode ->
      ignore (Pipeline.streams ~cluster:Dp_restructure.Cluster.Min_disk ctx ~procs:4 mode))
    [ Pipeline.Reuse_single; Pipeline.Reuse_multi ];
  let st = Pipeline.stats ctx in
  check Alcotest.int "one cluster table per policy" 2 st.Pipeline.cluster_builds;
  check Alcotest.int "two more streams builds" 5 st.Pipeline.stream_builds;
  (* The unmodified code never clusters. *)
  let plain = Pipeline.load transpose in
  ignore (Pipeline.streams plain ~procs:4 Pipeline.Original);
  check Alcotest.int "no cluster table for the original order" 0
    (Pipeline.stats plain).Pipeline.cluster_builds;
  (* The in-memory stages a trace feeds: the nine rows replay three
     traces, so three summaries, and the Base row and the two oracle
     rows share one no-PM reference run — however many domains run the
     rows, as [Experiments.build_matrix] fans them out. *)
  let matrix ~jobs ctx versions =
    ignore (Domain_pool.map ~jobs (fun v -> Dp_harness.Runner.run ctx ~procs:4 v) versions)
  in
  let builds ctx =
    let st = Pipeline.stats ctx in
    (st.Pipeline.summary_builds, st.Pipeline.reference_builds)
  in
  let pair = Alcotest.(pair int int) in
  List.iter
    (fun jobs ->
      let shared = Pipeline.load transpose in
      matrix ~jobs shared versions;
      check pair
        (Printf.sprintf "jobs %d: 3 summaries, 1 reference for 9 rows" jobs)
        (3, 1) (builds shared);
      matrix ~jobs shared versions;
      check pair (Printf.sprintf "jobs %d: a second matrix builds none" jobs) (3, 1)
        (builds shared);
      let no_oracle = Pipeline.load transpose in
      matrix ~jobs no_oracle Version.multi_cpu;
      check pair
        (Printf.sprintf "jobs %d: no oracle rows, the Base row builds the reference" jobs)
        (3, 1) (builds no_oracle))
    [ 1; 4 ]

let test_memo_same_result () =
  let ctx = Pipeline.load transpose in
  let t1 = Pipeline.columns ctx ~procs:4 Pipeline.Reuse_multi in
  let t2 = Pipeline.columns ctx ~procs:4 Pipeline.Reuse_multi in
  check Alcotest.bool "memoized stage returns the same trace" true (t1 == t2)

let test_derive_shares_graph () =
  let ctx = Pipeline.load transpose in
  let g = Pipeline.graph ctx in
  let layout =
    Dp_layout.Layout.make
      ~default:(Dp_layout.Striping.make ~unit_bytes:65536 ~factor:4 ~start_disk:1)
      (Pipeline.program ctx)
  in
  let dctx = Pipeline.derive ~layout ctx in
  check Alcotest.bool "derived context reuses the built graph" true (Pipeline.graph dctx == g);
  check Alcotest.int "no second graph build" 0 (Pipeline.stats dctx).Pipeline.graph_builds;
  check Alcotest.bool "derived traces differ (layout-dependent)" true
    (Pipeline.trace dctx ~procs:1 Pipeline.Original
    <> Pipeline.trace ctx ~procs:1 Pipeline.Original)

(* --- the persistent stage cache, through the pipeline --- *)

module Cachefs = Dp_cachefs.Cachefs

let cache_dir_counter = ref 0

let fresh_cache_dir () =
  incr cache_dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dpower-pipeline-cache-%d-%d" (Unix.getpid ()) !cache_dir_counter)

let store dir =
  match Cachefs.open_store ~dir () with
  | Ok c -> c
  | Error msg -> Alcotest.failf "open_store: %s" msg

(* Replays what Runner.run asks of a context, in Runner's order (rounds
   before trace), for one restructured cell plus its hint stream. *)
let drive ctx =
  let rounds = Pipeline.rounds ctx ~procs:4 Pipeline.Reuse_multi in
  let trace = Pipeline.trace ctx ~procs:4 Pipeline.Reuse_multi in
  let hints =
    Pipeline.hints ctx ~procs:4 ~space:Dp_oracle.Oracle.Tpm_space Pipeline.Reuse_multi
  in
  (rounds, trace, hints)

(* The column encoder writes the record encoder's bytes: the md5 of the
   encoding of each of FFT's and Cholesky's three traces at four
   processors, recorded when a trace was a request list.  And a warm
   context's trace, decoded from the store, is the cold context's
   generated trace column for column. *)
let test_columns_encode_as_records () =
  let marshal t = Marshal.to_string t [ Marshal.No_sharing ] in
  let modes = [ Pipeline.Original; Pipeline.Reuse_single; Pipeline.Reuse_multi ] in
  List.iter
    (fun (app, md5s) ->
      let dir = fresh_cache_dir () in
      let cold = Pipeline.load ~cache:(store dir) ("app:" ^ app) in
      let warm = Pipeline.load ~cache:(store dir) ("app:" ^ app) in
      List.iter2
        (fun mode md5 ->
          let what = Printf.sprintf "%s %s" app (Pipeline.mode_name mode) in
          let t = Pipeline.columns cold ~procs:4 mode in
          check Alcotest.string (what ^ ": encoding") md5
            (Digest.to_hex (Digest.string (Dp_trace.Bin.encode t)));
          let t' = Pipeline.columns warm ~procs:4 mode in
          check Alcotest.bool (what ^ ": warm = cold, column for column") true
            (marshal t = marshal t'))
        modes md5s;
      check Alcotest.int (app ^ ": the warm context decodes every trace") 0
        (Pipeline.stats warm).Pipeline.trace_builds;
      Dp_util.Fsx.remove_tree dir)
    [
      ( "FFT",
        [
          "8a23e158cd391dedd9834c1d41ea5d54";
          "67f654c1201dcef14fecf15f9185a501";
          "f21e20460b8e1f6c7e1c6c66b672194f";
        ] );
      ( "Cholesky",
        [
          "aee0ac59156ad1d4cb4053f4d9fb42ff";
          "970a50339b7294d2f3f384d3a423bf4a";
          "0c6a2cc3f7e8dc3de6a395b775074cbf";
        ] );
    ]

let test_disk_cache_warm () =
  let dir = fresh_cache_dir () in
  let ctx1 = Pipeline.load ~cache:(store dir) transpose in
  let r1, t1, h1 = drive ctx1 in
  let st1 = Pipeline.stats ctx1 in
  check Alcotest.bool "cold context probes the disk" true (st1.Pipeline.disk_misses > 0);
  check Alcotest.int "cold context builds the trace" 1 st1.Pipeline.trace_builds;
  (* A fresh handle and context — a later process with a warm cache. *)
  let ctx2 = Pipeline.load ~cache:(store dir) transpose in
  let r2, t2, h2 = drive ctx2 in
  let st2 = Pipeline.stats ctx2 in
  check Alcotest.bool "warm context hits the disk" true (st2.Pipeline.disk_hits > 0);
  check Alcotest.int "no graph build on the warm path" 0 st2.Pipeline.graph_builds;
  check Alcotest.int "no cluster table on the warm path" 0 st2.Pipeline.cluster_builds;
  check Alcotest.int "no streams build on the warm path" 0 st2.Pipeline.stream_builds;
  check Alcotest.int "no trace build on the warm path" 0 st2.Pipeline.trace_builds;
  check Alcotest.int "no hint build on the warm path" 0 st2.Pipeline.hint_builds;
  check Alcotest.bool "identical rounds" true (r1 = r2);
  check Alcotest.bool "identical trace" true (t1 = t2);
  check Alcotest.bool "identical hints" true (h1 = h2);
  (* Different knobs must never share an entry. *)
  check Alcotest.bool "other cells are not answered by this entry" true
    (Pipeline.trace ctx2 ~procs:1 Pipeline.Original <> t2)

let test_disk_cache_corruption_recovery () =
  let dir = fresh_cache_dir () in
  let ctx1 = Pipeline.load ~cache:(store dir) transpose in
  let _, t1, h1 = drive ctx1 in
  (* Flip one byte in the middle of every cached entry. *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".bin" then begin
        let path = Filename.concat dir name in
        let data = Bytes.of_string (Dp_util.Fsx.read_file path) in
        let i = Bytes.length data / 2 in
        Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x10));
        let oc = open_out_bin path in
        output_bytes oc data;
        close_out oc
      end)
    (Sys.readdir dir);
  let ctx2 = Pipeline.load ~cache:(store dir) transpose in
  let _, t2, h2 = drive ctx2 in
  let st2 = Pipeline.stats ctx2 in
  check Alcotest.bool "corrupt entries evicted" true (st2.Pipeline.corrupt_evictions > 0);
  check Alcotest.int "trace rebuilt from scratch" 1 st2.Pipeline.trace_builds;
  check Alcotest.bool "identical trace after corruption" true (t1 = t2);
  check Alcotest.bool "identical hints after corruption" true (h1 = h2);
  (* The rebuild wrote fresh entries: a third context runs warm again. *)
  let ctx3 = Pipeline.load ~cache:(store dir) transpose in
  let _, t3, _ = drive ctx3 in
  let st3 = Pipeline.stats ctx3 in
  check Alcotest.bool "store recovered after rewrite" true (st3.Pipeline.disk_hits > 0);
  check Alcotest.int "no rebuild after recovery" 0 st3.Pipeline.trace_builds;
  check Alcotest.bool "identical trace after recovery" true (t1 = t3)

(* A frame that verifies but does not decode is corrupt, not a hit: the
   entry is quarantined and the stage rebuilt. *)
let test_disk_cache_undecodable () =
  let dir = fresh_cache_dir () in
  let _, t1, h1 = drive (Pipeline.load ~cache:(store dir) transpose) in
  let garbage = store dir in
  let entries =
    List.filter (fun n -> Filename.check_suffix n ".bin") (Array.to_list (Sys.readdir dir))
  in
  check Alcotest.int "trace and hints stored" 2 (List.length entries);
  List.iter
    (fun name ->
      (* entry-<key>.bin *)
      let key = Filename.chop_suffix (String.sub name 6 (String.length name - 6)) ".bin" in
      Cachefs.put garbage ~key "frame verifies, payload does not decode")
    entries;
  let ctx2 = Pipeline.load ~cache:(store dir) transpose in
  let _, t2, h2 = drive ctx2 in
  let st2 = Pipeline.stats ctx2 in
  check Alcotest.int "both entries evicted" 2 st2.Pipeline.corrupt_evictions;
  check Alcotest.int "no disk hit" 0 st2.Pipeline.disk_hits;
  check Alcotest.int "trace rebuilt" 1 st2.Pipeline.trace_builds;
  check Alcotest.int "hints rebuilt" 1 st2.Pipeline.hint_builds;
  check Alcotest.bool "identical trace" true (t1 = t2);
  check Alcotest.bool "identical hints" true (h1 = h2)

let test_no_cache_matches_cached () =
  let dir = fresh_cache_dir () in
  let cached = Pipeline.load ~cache:(store dir) transpose in
  let plain = Pipeline.load transpose in
  let rc, tc, hc = drive cached in
  let rp, tp, hp = drive plain in
  check Alcotest.bool "rounds unchanged by the cache" true (rc = rp);
  check Alcotest.bool "trace unchanged by the cache" true (tc = tp);
  check Alcotest.bool "hints unchanged by the cache" true (hc = hp);
  check Alcotest.bool "uncached context reports no disk traffic" true
    ((Pipeline.stats plain).Pipeline.disk_misses = 0
    && (Pipeline.stats plain).Pipeline.disk_hits = 0)

let test_digest_stability () =
  let a = Pipeline.load transpose and b = Pipeline.load transpose in
  check Alcotest.string "equal programs digest equally" (Pipeline.digest a)
    (Pipeline.digest b);
  let layout =
    Dp_layout.Layout.make
      ~default:(Dp_layout.Striping.make ~unit_bytes:65536 ~factor:4 ~start_disk:1)
      (Pipeline.program a)
  in
  check Alcotest.bool "different layouts digest differently" true
    (Pipeline.digest (Pipeline.derive ~layout a) <> Pipeline.digest a)

let test_mode_names () =
  List.iter
    (fun m ->
      check Alcotest.bool
        (Printf.sprintf "mode %s round-trips" (Pipeline.mode_name m))
        true
        (Pipeline.mode_of_name (Pipeline.mode_name m) = Some m))
    [ Pipeline.Original; Pipeline.Reuse_single; Pipeline.Reuse_multi ];
  check Alcotest.bool "unknown mode name" true (Pipeline.mode_of_name "bogus" = None)

let test_multi_needs_procs () =
  let ctx = Pipeline.load transpose in
  check Alcotest.bool "Reuse_multi at 1 processor rejected" true
    (match Pipeline.trace ctx ~procs:1 Pipeline.Reuse_multi with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- golden: CLI trace = Runner-path trace, per version and procs --- *)

let cli_flags version =
  match Version.mode version with
  | Pipeline.Original -> []
  | Pipeline.Reuse_single -> [ "--restructure"; "--mode"; "single" ]
  | Pipeline.Reuse_multi -> [ "--restructure"; "--mode"; "multi" ]

let test_cli_matches_runner () =
  let ctx = Pipeline.load transpose in
  List.iter
    (fun procs ->
      List.iter
        (fun version ->
          let mode = Version.mode version in
          if not (mode = Pipeline.Reuse_multi && procs = 1) then begin
            let cli_file = Filename.temp_file "dpower_cli" ".trace" in
            let lib_file = Filename.temp_file "dpower_lib" ".trace" in
            Fun.protect
              ~finally:(fun () ->
                Sys.remove cli_file;
                Sys.remove lib_file)
              (fun () ->
                let code, _, err =
                  Test_cli.run
                    ([ Test_cli.dpcc; "trace"; transpose; "--procs"; string_of_int procs ]
                    @ cli_flags version
                    @ [ "-o"; cli_file ])
                in
                check Alcotest.int
                  (Printf.sprintf "dpcc trace %s/%dp exits 0 (stderr %S)"
                     (Version.name version) procs err)
                  0 code;
                Request.save lib_file (Pipeline.trace ctx ~procs mode);
                check Alcotest.string
                  (Printf.sprintf "trace bytes %s at %d proc(s)" (Version.name version)
                     procs)
                  (Test_cli.slurp lib_file) (Test_cli.slurp cli_file))
          end)
        (Version.multi_cpu @ Version.oracle))
    [ 1; 4; 8 ]

(* --- property: --jobs N output is byte-identical to --jobs 1 --- *)

let sweep_json ~jobs ~seed ~rate app =
  Json_out.to_string
    (Json_out.of_sweep
       (Experiments.fault_sweep ~seed ~rates:[ 0.0; rate ] ~jobs ~procs:4
          ~versions:Version.multi_cpu app))

let matrix_json ~jobs ~faults app =
  Json_out.to_string
    (Json_out.of_matrix
       (Experiments.build_matrix ~apps:[ app ]
          ~knobs:{ Dp_disksim.Knobs.none with faults = Some faults }
          ~jobs ~procs:4
          ~versions:(Version.multi_cpu @ Version.oracle) ()))

let test_jobs_deterministic =
  QCheck.Test.make ~count:5 ~name:"matrix and sweep JSON independent of --jobs"
    QCheck.(pair (int_bound 10_000) (int_bound 200))
    (fun (seed, rate_millis) ->
      let rate = float_of_int rate_millis /. 1000.0 in
      let app = Pipeline.app (Pipeline.load transpose) in
      let faults = Dp_faults.Fault_model.make ~seed ~rate () in
      String.equal (matrix_json ~jobs:1 ~faults app) (matrix_json ~jobs:4 ~faults app)
      && String.equal (sweep_json ~jobs:1 ~seed ~rate app)
           (sweep_json ~jobs:4 ~seed ~rate app))

let suites =
  [
    ( "pipeline",
      [
        Alcotest.test_case "pool preserves order" `Quick test_pool_order;
        Alcotest.test_case "pool edge cases" `Quick test_pool_edges;
        Alcotest.test_case "pool clamps to the hardware" `Quick test_pool_clamp;
        Alcotest.test_case "pool first error wins" `Quick test_pool_first_error_wins;
        test_pool_multi_failure;
        Alcotest.test_case "pool transient retry" `Quick test_pool_transient_retry;
        Alcotest.test_case "stage memo sharing" `Quick test_memo_sharing;
        Alcotest.test_case "memoized trace is shared" `Quick test_memo_same_result;
        Alcotest.test_case "derive shares the graph" `Quick test_derive_shares_graph;
        Alcotest.test_case "disk cache: warm context" `Quick test_disk_cache_warm;
        Alcotest.test_case "disk cache: corruption recovery" `Quick
          test_disk_cache_corruption_recovery;
        Alcotest.test_case "disk cache: undecodable entries" `Quick
          test_disk_cache_undecodable;
        Alcotest.test_case "disk cache: --no-cache path identical" `Quick
          test_no_cache_matches_cached;
        Alcotest.test_case "digest stability" `Quick test_digest_stability;
        Alcotest.test_case "mode names round-trip" `Quick test_mode_names;
        Alcotest.test_case "multi mode needs procs > 1" `Quick test_multi_needs_procs;
        Alcotest.test_case "golden: CLI trace = Runner trace" `Slow test_cli_matches_runner;
        Alcotest.test_case "columns encode as records; warm = cold" `Slow
          test_columns_encode_as_records;
        QCheck_alcotest.to_alcotest test_jobs_deterministic;
      ] );
  ]
