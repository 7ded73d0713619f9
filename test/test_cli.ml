(* End-to-end checks on the two command-line tools: malformed input and
   unknown flags exit with status 2 after a one-line diagnostic, and the
   usage strings advertise the fault-injection flag.  Runs the binaries
   dune built next to the test. *)

let check = Alcotest.check
let dpsim = Filename.concat (Filename.concat ".." "bin") "dpsim.exe"
let dpcc = Filename.concat (Filename.concat ".." "bin") "dpcc.exe"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [argv], returning (exit code, stdout, stderr). *)
let run argv =
  let out = Filename.temp_file "dpower" ".out" in
  let err = Filename.temp_file "dpower" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let code = Sys.command (Filename.quote_command (List.hd argv) ~stdout:out ~stderr:err (List.tl argv)) in
      (code, slurp out, slurp err))

let with_trace_file contents f =
  let path = Filename.temp_file "dpower" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let one_line s =
  (* A single diagnostic line (allowing the trailing newline). *)
  match String.split_on_char '\n' (String.trim s) with [ _ ] -> true | _ -> false

let test_dpsim_malformed_trace () =
  with_trace_file "1.0 2.0 0 0 0 1024 R 0 0\n1.0 2.0 0 0 0 junk R 0 0\n" (fun path ->
      let code, _, err = run [ dpsim; path ] in
      check Alcotest.int "exit code" 2 code;
      check Alcotest.bool "one-line diagnostic" true (one_line err);
      check Alcotest.bool
        (Printf.sprintf "names file:line (got %S)" err)
        true
        (contains ~needle:(path ^ ":2:") err && contains ~needle:"size" err));
  (* A non-finite time parses as a float but must not reach the engine,
     which would never issue that request. *)
  with_trace_file
    "1.0 2.0 0 0 0 1024 R 0 0\n1.0 nan 0 0 0 1024 R 0 0\n1.0 2.0 0 0 0 1024 R 0 0\n"
    (fun path ->
      let code, _, err = run [ dpsim; "--per-disk"; path ] in
      check Alcotest.int "non-finite think: exit code" 2 code;
      check Alcotest.bool "non-finite think: one-line diagnostic" true (one_line err);
      check Alcotest.bool
        (Printf.sprintf "non-finite think: names file:line and field (got %S)" err)
        true
        (contains ~needle:(path ^ ":2:") err && contains ~needle:"think_ms" err));
  (* Likewise a non-finite hint time or lead: a [nan] time sorts first
     and the engine would silently drop every later hint on the disk. *)
  let requests =
    "0.000 1.000 0 0 0 1024 R 0 0\n100.000 20000.000 0 4096 4096 1024 R 0 0\n\
     40200.000 40000.000 0 8192 8192 1024 R 0 0\n"
  in
  List.iter
    (fun (hints, line, field) ->
      with_trace_file (requests ^ hints) (fun path ->
          let code, _, err = run [ dpsim; path; "--policy"; "tpm"; "--proactive" ] in
          check Alcotest.int ("non-finite hint " ^ field ^ ": exit code") 2 code;
          check Alcotest.bool ("non-finite hint " ^ field ^ ": one-line diagnostic") true
            (one_line err);
          check Alcotest.bool
            (Printf.sprintf "non-finite hint %s: names file:line and field (got %S)" field
               err)
            true
            (contains ~needle:(Printf.sprintf "%s:%d:" path line) err
            && contains ~needle:("hint " ^ field) err
            && contains ~needle:"finite" err)))
    [
      ( "H nan 0 D\nH 15000.000 0 U 10900.000\n\
         H 20200.000 0 D\nH 29300.000 0 U 10900.000\n",
        4,
        "time" );
      ("H 10.000 0 D\nH 15000.000 0 U inf\n", 5, "lead");
    ]

let test_dpsim_unknown_flag () =
  let code, _, err = run [ dpsim; "--no-such-flag" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "mentions the flag" true (contains ~needle:"no-such-flag" err)

let test_dpsim_bad_faults_spec () =
  with_trace_file "1.0 2.0 0 0 0 1024 R 0 0\n" (fun path ->
      let code, _, err = run [ dpsim; "--faults"; "1:nope:all"; path ] in
      check Alcotest.int "exit code" 2 code;
      check Alcotest.bool
        (Printf.sprintf "names the field (got %S)" err)
        true
        (contains ~needle:"--faults" err && contains ~needle:"rate" err))

let test_dpsim_usage () =
  let code, out, _ = run [ dpsim; "--help=plain" ] in
  check Alcotest.int "help exits 0" 0 code;
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "usage mentions %s" needle) true
        (contains ~needle out))
    [ "dpsim"; "--faults"; "SEED:RATE:CLASSES"; "--policy" ]

let test_dpsim_runs () =
  with_trace_file "1.0 2.0 0 0 0 1024 R 0 0\n" (fun path ->
      let code, out, _ = run [ dpsim; "--faults"; "7:0.1:all"; path ] in
      check Alcotest.int "exit code" 0 code;
      check Alcotest.bool "reports the fault window" true (contains ~needle:"faults seed 7" out);
      check Alcotest.bool "reports wear" true (contains ~needle:"start-stop budget" out))

let test_version_flags () =
  List.iter
    (fun bin ->
      let code, out, _ = run [ bin; "--version" ] in
      check Alcotest.int (bin ^ " --version exits 0") 0 code;
      check Alcotest.string (bin ^ " version string") "1.0.0" (String.trim out))
    [ dpsim; dpcc ]

let test_dpcc_unknown_command () =
  let code, _, err = run [ dpcc; "frobnicate" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the offender" true (contains ~needle:"frobnicate" err);
  (* The full command list, not just a one-liner. *)
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "usage lists %s" needle) true
        (contains ~needle err))
    [ "Commands:"; "show"; "restructure"; "trace"; "simulate"; "report"; "fault-sweep" ]

let test_dpsim_obs_gaps () =
  with_trace_file "1.0 2.0 0 0 0 65536 R 0 0\n70000.0 60000.0 0 0 1073741824 65536 R 0 0\n"
    (fun path ->
      let out_path = Filename.temp_file "dpower" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out_path)
        (fun () ->
          let code, out, _ =
            run [ dpsim; path; out_path; "--policy"; "tpm"; "--disks"; "1"; "--obs"; "gaps" ]
          in
          check Alcotest.int "exit code" 0 code;
          check Alcotest.bool "prints the policy" true (contains ~needle:"policy: TPM" out);
          check Alcotest.bool "per-disk report" true (contains ~needle:"disk 0:" out);
          check Alcotest.bool "gap histogram" true (contains ~needle:"idle gaps (ms)" out);
          check Alcotest.bool "standby residency" true
            (contains ~needle:"standby residencies" out);
          let jsonl = slurp out_path in
          check Alcotest.bool "JSONL artifact written" true
            (contains ~needle:"\"idle_gaps\":{\"edges\":" jsonl)))

let test_dpsim_obs_trace () =
  with_trace_file "1.0 2.0 0 0 0 65536 R 0 0\n70000.0 60000.0 0 0 1073741824 65536 R 0 0\n"
    (fun path ->
      let out_path = Filename.temp_file "dpower" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out_path)
        (fun () ->
          let code, out, _ =
            run [ dpsim; path; out_path; "--policy"; "tpm"; "--disks"; "1"; "--obs"; "trace" ]
          in
          check Alcotest.int "exit code" 0 code;
          check Alcotest.bool "announces the artifact" true
            (contains ~needle:"Chrome trace written" out);
          let json = slurp out_path in
          List.iter
            (fun needle ->
              check Alcotest.bool (Printf.sprintf "trace has %s" needle) true
                (contains ~needle json))
            [
              "\"displayTimeUnit\":\"ms\"";
              "{\"name\":\"disk 0\"}";
              "\"name\":\"STANDBY\"";
              "\"cat\":\"io\"";
            ]))

let test_dpsim_obs_bad_mode () =
  with_trace_file "1.0 2.0 0 0 0 65536 R 0 0\n" (fun path ->
      let code, _, err = run [ dpsim; path; "--obs"; "nope" ] in
      check Alcotest.int "exit code" 2 code;
      check Alcotest.bool "names the mode" true (contains ~needle:"nope" err))

(* The streamed event log: published under its name by rename (no
   temp file left beside it), one parseable JSON object per line, and
   one service line per request of the trace. *)
let test_dpsim_obs_events () =
  let trace =
    "1.0 2.0 0 0 0 65536 R 0 0\n1.0 2.0 0 0 0 65536 R 1 1\n\
     70000.0 60000.0 0 0 1073741824 65536 R 0 0\n70000.0 60000.0 0 0 1073741824 65536 W 1 1\n"
  in
  with_trace_file trace (fun path ->
      let dir = Filename.temp_dir "dpower-cli-events" "" in
      let out_path = Filename.concat dir "events.jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
          Unix.rmdir dir)
        (fun () ->
          let code, out, err =
            run
              [ dpsim; path; out_path; "--disks"; "2"; "--policy"; "drpm"; "--proactive";
                "--obs"; "events" ]
          in
          check Alcotest.int (Printf.sprintf "exit code (stderr %S)" err) 0 code;
          check Alcotest.bool "announces the artifact" true
            (contains ~needle:"event log written" out);
          check Alcotest.(list string) "only the artifact, no temp file" [ "events.jsonl" ]
            (Array.to_list (Sys.readdir dir));
          let lines =
            List.filter (fun l -> l <> "") (String.split_on_char '\n' (slurp out_path))
          in
          List.iter
            (fun l ->
              match Dp_util.Json.of_string l with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "line %S does not parse: %s" l e)
            lines;
          check Alcotest.int "one service line per request" 4
            (List.length (List.filter (contains ~needle:"\"type\":\"service\"") lines))))

(* A trace that names a disk past --disks is a bad flag value, refused
   before any run (the oracle's reference run included). *)
let test_dpsim_too_few_disks () =
  with_trace_file "1.0 2.0 0 0 0 65536 R 0 0\n1.0 2.0 0 0 0 65536 R 1 1\n" (fun path ->
      List.iter
        (fun policy ->
          let code, _, err = run [ dpsim; path; "--disks"; "1"; "--policy"; policy ] in
          check Alcotest.int (policy ^ ": exit code") 2 code;
          check Alcotest.bool (policy ^ ": one-line diagnostic") true (one_line err);
          check Alcotest.bool
            (Printf.sprintf "%s: names --disks and the disk (got %S)" policy err)
            true
            (contains ~needle:"--disks" err && contains ~needle:"disk 1" err))
        [ "tpm"; "oracle" ])

(* A negative id is malformed input, not an internal error: each line
   below once made dpsim exit 1 indexing a queue or a disk out of
   bounds. *)
let test_dpsim_negative_ids () =
  List.iter
    (fun (contents, line, field) ->
      with_trace_file contents (fun path ->
          let code, _, err = run [ dpsim; path; "--disks"; "1" ] in
          check Alcotest.int (field ^ ": exit code") 2 code;
          check Alcotest.bool (field ^ ": one-line diagnostic") true (one_line err);
          check Alcotest.bool
            (Printf.sprintf "%s: names file:line and field (got %S)" field err)
            true
            (contains ~needle:(Printf.sprintf "%s:%d: bad %s \"-1\"" path line field) err)))
    [
      ("0.000 0.000 0 0 0 4096 R -1 0\n", 1, "proc");
      ("0.000 0.000 -1 0 0 4096 R 0 0\n", 1, "seg");
      ("0.000 0.000 0 0 0 4096 R 0 -1\n", 1, "disk");
      ("0.000 0.000 0 0 0 4096 R 0 0\nH 1.000 -1 D\n", 2, "hint disk");
    ]

let test_dpsim_obs_oracle_rejected () =
  with_trace_file "1.0 2.0 0 0 0 65536 R 0 0\n" (fun path ->
      let code, _, err = run [ dpsim; path; "--policy"; "oracle"; "--obs"; "gaps" ] in
      check Alcotest.int "exit code" 2 code;
      check Alcotest.bool "explains why" true (contains ~needle:"analytic bound" err))

let test_dpcc_profile () =
  let code, _, err = run [ dpcc; "restructure"; "app:Cholesky"; "--profile" ] in
  check Alcotest.int "exit code" 0 code;
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "profile table has %s" needle) true
        (contains ~needle err))
    [ "pass"; "total (ms)"; "dependence.concrete-build"; "restructure.reuse-schedule" ]

let test_dpcc_unknown_flag () =
  let code, _, err = run [ dpcc; "simulate"; "--no-such-flag"; "app:AST" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "mentions the flag" true (contains ~needle:"no-such-flag" err)

let test_dpcc_malformed_source () =
  with_trace_file "1.0 2.0 0 0 junk 1024 R 0 0\n" (fun path ->
      let code, _, err = run [ dpcc; "simulate"; path ] in
      check Alcotest.int "exit code" 2 code;
      check Alcotest.bool
        (Printf.sprintf "names file:line (got %S)" err)
        true
        (contains ~needle:(path ^ ":1:") err))

let test_dpcc_usage () =
  let code, out, _ = run [ dpcc; "fault-sweep"; "--help=plain" ] in
  check Alcotest.int "help exits 0" 0 code;
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "usage mentions %s" needle) true
        (contains ~needle out))
    [ "fault-sweep"; "--rates"; "--seed"; "--json"; "--jobs" ]

(* --mode: contradictory flag combinations are usage errors (exit 2). *)

let test_dpcc_mode_without_restructure () =
  let code, _, err = run [ dpcc; "trace"; "app:AST"; "--mode"; "single" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool
    (Printf.sprintf "points at --restructure (got %S)" err)
    true
    (contains ~needle:"--restructure" err)

let test_dpcc_mode_multi_one_proc () =
  let code, _, err = run [ dpcc; "simulate"; "app:AST"; "--restructure"; "--mode"; "multi" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool
    (Printf.sprintf "points at --procs (got %S)" err)
    true
    (contains ~needle:"--procs" err)

let test_dpcc_mode_unknown () =
  let code, _, err =
    run [ dpcc; "trace"; "app:AST"; "--restructure"; "--mode"; "sideways" ]
  in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the value and the choices" true
    (contains ~needle:"sideways" err && contains ~needle:"single | multi" err)

let test_dpcc_bad_jobs () =
  let code, _, err = run [ dpcc; "report"; "app:AST"; "--jobs"; "0" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names --jobs" true (contains ~needle:"--jobs" err)

let test_dpcc_bad_procs () =
  List.iter
    (fun sub ->
      let code, _, err = run [ dpcc; sub; "app:AST"; "--procs"; "0" ] in
      check Alcotest.int (sub ^ " exit code") 2 code;
      check Alcotest.bool
        (Printf.sprintf "%s names --procs (got %S)" sub err)
        true (contains ~needle:"--procs" err);
      check Alcotest.bool (sub ^ " one-line diagnostic") true (one_line err))
    [ "trace"; "simulate"; "report"; "fault-sweep" ]

(* A subscript that leaves its array's extent is malformed input: the
   first pass that resolves the program's accesses against the layout
   names the array, the coordinate and the extent, after the file. *)
let test_dpcc_out_of_bounds () =
  let path = Filename.temp_file "dpower-oob" ".dpl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "array u[4][4] elem 4K file \"u.dat\";\n\
         nest {\n\
        \  for i = 0 .. 4 {\n\
        \    for j = 0 .. 3 {\n\
        \      read u[i][j] work 1000;\n\
        \    }\n\
        \  }\n\
         }\n";
      close_out oc;
      List.iter
        (fun argv ->
          let what = String.concat " " argv in
          let code, _, err = run ((dpcc :: argv) @ [ path ]) in
          check Alcotest.int (what ^ " exit code") 2 code;
          check Alcotest.bool (what ^ " one-line diagnostic") true (one_line err);
          check Alcotest.bool
            (Printf.sprintf "%s names file, array, coordinate and extent (got %S)" what err)
            true
            (contains ~needle:(path ^ ": u: ") err
            && contains ~needle:"coordinate 4 of dimension 0 not in [0, 4)" err))
        [
          [ "report"; "--no-cache" ];
          [ "trace"; "--no-cache" ];
          [ "trace"; "--restructure"; "--no-cache" ];
          [ "simulate"; "--procs"; "4"; "--no-cache" ];
        ])

(* --- the served-array command --- *)

let test_dpcc_serve_json_deterministic () =
  (* 3 tenants: all-OLTP, so no pipeline stages and no cache needed. *)
  let serve jobs =
    run
      [ dpcc; "serve"; "--tenants"; "3"; "--seed"; "42"; "--jobs"; jobs; "--json"; "--no-cache" ]
  in
  let code1, out1, err1 = serve "1" in
  check Alcotest.int (Printf.sprintf "jobs-1 exits 0 (stderr %S)" err1) 0 code1;
  let code4, out4, _ = serve "4" in
  check Alcotest.int "jobs-4 exits 0" 0 code4;
  check Alcotest.string "byte-identical across --jobs" out1 out4;
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "JSON has %s" needle) true
        (contains ~needle out1))
    [
      "\"selection\": \"all\"";
      "\"label\": \"base\"";
      "\"label\": \"offline-tpm\"";
      "\"label\": \"offline-drpm\"";
      "\"label\": \"online\"";
      "\"label\": \"oracle\"";
      "\"attributed_j\"";
      "\"fairness\"";
    ];
  check Alcotest.bool "jobs never leaks into the report" false
    (contains ~needle:"jobs" out1)

let test_dpcc_serve_human_table () =
  let code, out, _ =
    run [ dpcc; "serve"; "--tenants"; "2"; "--seed"; "7"; "--policy"; "online"; "--no-cache" ]
  in
  check Alcotest.int "exit code" 0 code;
  check Alcotest.bool "header names the population" true
    (contains ~needle:"serve: 2 tenants" out);
  check Alcotest.bool "online row present" true (contains ~needle:"online" out)

let test_dpcc_serve_bad_policy () =
  let code, _, err = run [ dpcc; "serve"; "--tenants"; "2"; "--policy"; "psychic" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool
    (Printf.sprintf "names the value and the choices (got %S)" err)
    true
    (contains ~needle:"psychic" err && contains ~needle:"oracle" err)

let test_dpcc_serve_bad_faults () =
  (* Malformed --faults on serve: exit 2 with a one-line diagnostic
     naming the offending field. *)
  let code, _, err =
    run [ dpcc; "serve"; "--tenants"; "2"; "--faults"; "1:nope:all" ]
  in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "one-line diagnostic" true (one_line err);
  check Alcotest.bool
    (Printf.sprintf "names the flag and the field (got %S)" err)
    true
    (contains ~needle:"--faults" err && contains ~needle:"rate" err);
  let code, _, err =
    run [ dpcc; "serve"; "--tenants"; "2"; "--faults"; "1:0.1:ss" ]
  in
  check Alcotest.int "duplicate class exits 2" 2 code;
  check Alcotest.bool
    (Printf.sprintf "names the duplicate (got %S)" err)
    true
    (contains ~needle:"duplicate" err)

let test_dpcc_serve_bad_decay () =
  let code, _, err = run [ dpcc; "serve"; "--tenants"; "2"; "--decay"; "1:nope" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool
    (Printf.sprintf "names --decay and the field (got %S)" err)
    true
    (contains ~needle:"--decay" err && contains ~needle:"rate" err);
  let code, _, err =
    run
      [ dpcc; "serve"; "--tenants"; "2"; "--decay"; "1:0.1"; "--faults"; "2:0.1:m" ]
  in
  check Alcotest.int "--decay with --faults exits 2" 2 code;
  check Alcotest.bool "explains the exclusion" true
    (contains ~needle:"--decay" err && contains ~needle:"--faults" err)

let test_dpcc_serve_decay_reports_availability () =
  let code, out, err =
    run
      [
        dpcc; "serve"; "--tenants"; "2"; "--seed"; "7"; "--policy"; "online";
        "--decay"; "11:0.2"; "--scrub-ms"; "40"; "--json"; "--no-cache";
      ]
  in
  check Alcotest.int (Printf.sprintf "exit code (stderr %S)" err) 0 code;
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "JSON has %s" needle) true
        (contains ~needle out))
    [
      "\"faults\": \"11:0.2:d\"";
      "\"deadline_ms\": 500";
      "\"scrub_budget_ms\": 40";
      "\"availability\"";
      "\"slo\"";
    ]

let test_dpcc_serve_decay_rate_zero_identical () =
  (* Rate-0 decay with scrub off is byte-identical to the clean serve
     report — the acceptance gate for the failure domain's default-off
     discipline. *)
  let base =
    [ dpcc; "serve"; "--tenants"; "2"; "--seed"; "7"; "--policy"; "online"; "--json"; "--no-cache" ]
  in
  let code0, clean, _ = run base in
  check Alcotest.int "clean exits 0" 0 code0;
  let code1, armed, _ = run (base @ [ "--decay"; "11:0" ]) in
  check Alcotest.int "rate-0 decay exits 0" 0 code1;
  check Alcotest.string "byte-identical to the clean report" clean armed

let test_dpcc_serve_bad_tenants () =
  let code, _, err = run [ dpcc; "serve"; "--tenants"; "0" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names --tenants" true (contains ~needle:"--tenants" err)

let test_dpcc_serve_bad_deadline () =
  let code, _, err =
    run [ dpcc; "serve"; "--tenants"; "2"; "--deadline"; "0"; "--no-cache" ]
  in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "one-line diagnostic" true (one_line err);
  check Alcotest.bool
    (Printf.sprintf "names --deadline and the constraint (got %S)" err)
    true
    (contains ~needle:"--deadline" err && contains ~needle:"positive" err)

let test_dpcc_serve_bad_scrub () =
  let code, _, err =
    run [ dpcc; "serve"; "--tenants"; "2"; "--scrub-ms=-5"; "--no-cache" ]
  in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "one-line diagnostic" true (one_line err);
  check Alcotest.bool
    (Printf.sprintf "names --scrub-ms and the constraint (got %S)" err)
    true
    (contains ~needle:"--scrub-ms" err && contains ~needle:"non-negative" err)

(* --- the live console and the artifact differ --- *)

let live_trace =
  "1.0 2.0 0 0 0 65536 R 0 0\n70000.0 60000.0 0 0 1073741824 65536 R 0 0\n"

(* A same-shape trace with a very different gap structure, for shift
   detection: closely spaced small reads instead of one 70 s hole. *)
let busy_trace =
  "1.0 2.0 0 0 0 65536 R 0 0\n500.0 2.0 0 0 4194304 65536 R 0 0\n\
   1000.0 2.0 0 0 8388608 65536 R 0 0\n1500.0 2.0 0 0 12582912 65536 R 0 0\n"

let test_dpsim_live_piped () =
  with_trace_file live_trace (fun path ->
      let code, out, err = run [ dpsim; path; "--disks"; "1"; "--live" ] in
      check Alcotest.int (Printf.sprintf "exit code (stderr %S)" err) 0 code;
      check Alcotest.bool "frames present" true (contains ~needle:"dpower live" out);
      check Alcotest.bool "plain separator blocks" true (contains ~needle:"----\n" out);
      check Alcotest.bool "no ANSI escapes when piped" false (contains ~needle:"\x1b[" out);
      check Alcotest.bool "summary still printed" true (contains ~needle:"energy" out))

let test_dpsim_live_oracle_rejected () =
  with_trace_file live_trace (fun path ->
      let code, _, err = run [ dpsim; path; "--policy"; "oracle"; "--live" ] in
      check Alcotest.int "exit code" 2 code;
      check Alcotest.bool "names --live" true (contains ~needle:"--live" err))

let test_dpcc_serve_live_frames () =
  let code, out, err =
    run
      [
        dpcc; "serve"; "--tenants"; "2"; "--seed"; "7"; "--policy"; "online";
        "--no-cache"; "--live";
      ]
  in
  check Alcotest.int (Printf.sprintf "exit code (stderr %S)" err) 0 code;
  check Alcotest.bool "labels each row's console" true
    (contains ~needle:"== live: online ==" out);
  check Alcotest.bool "frames present" true (contains ~needle:"dpower live" out);
  check Alcotest.bool "table still printed" true (contains ~needle:"serve: 2 tenants" out)

(* Run dpsim --obs gaps on [trace] and hand [f] the JSONL artifact. *)
let with_obs_artifact trace f =
  with_trace_file trace (fun path ->
      let out_path = Filename.temp_file "dpower" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out_path)
        (fun () ->
          let code, _, err =
            run [ dpsim; path; out_path; "--policy"; "tpm"; "--disks"; "1"; "--obs"; "gaps" ]
          in
          check Alcotest.int (Printf.sprintf "artifact run exits 0 (stderr %S)" err) 0 code;
          f out_path))

let test_dpcc_obs_diff_self_zero () =
  with_obs_artifact live_trace (fun a ->
      let code, out, err = run [ dpcc; "obs"; "diff"; a; a; "--json" ] in
      check Alcotest.int (Printf.sprintf "self-diff exits 0 (stderr %S)" err) 0 code;
      check Alcotest.bool "max KS exactly zero" true (contains ~needle:"\"max_ks\":0" out);
      check Alcotest.bool "max EMD exactly zero" true (contains ~needle:"\"max_emd\":0" out);
      check Alcotest.bool "per-line stats present" true (contains ~needle:"\"idle_gaps\"" out))

let test_dpcc_obs_diff_threshold () =
  with_obs_artifact live_trace (fun a ->
      with_obs_artifact busy_trace (fun b ->
          let code, out, _ = run [ dpcc; "obs"; "diff"; a; b ] in
          check Alcotest.int "diff without a gate exits 0" 0 code;
          check Alcotest.bool "summary line present" true (contains ~needle:"max KS" out);
          let code, out, err =
            run [ dpcc; "obs"; "diff"; a; b; "--threshold"; "0.000001" ]
          in
          check Alcotest.int "exceeded gate exits 1" 1 code;
          check Alcotest.bool "diff still printed" true (contains ~needle:"max KS" out);
          check Alcotest.bool
            (Printf.sprintf "gate message names --threshold (got %S)" err)
            true
            (contains ~needle:"--threshold" err)))

let test_dpcc_obs_unknown_sub () =
  let code, _, err = run [ dpcc; "obs"; "bogus" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the offender" true (contains ~needle:"bogus" err);
  check Alcotest.bool "lists the obs commands" true (contains ~needle:"diff" err)

let test_dpcc_obs_diff_bad_input () =
  let code, _, err =
    run [ dpcc; "obs"; "diff"; "/nonexistent-a.jsonl"; "/nonexistent-b.jsonl" ]
  in
  check Alcotest.int "missing file exits 2" 2 code;
  check Alcotest.bool "names the file" true (contains ~needle:"nonexistent-a" err);
  with_obs_artifact live_trace (fun a ->
      let code, _, err =
        run [ dpcc; "obs"; "diff"; a; a; "--threshold=-1" ]
      in
      check Alcotest.int "negative threshold exits 2" 2 code;
      check Alcotest.bool "names --threshold" true (contains ~needle:"--threshold" err))

(* --- the persistent stage cache, end to end --- *)

let cache_dir_counter = ref 0

let fresh_cache_dir () =
  incr cache_dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dpower-cli-cache-%d-%d" (Unix.getpid ()) !cache_dir_counter)

(* Flip one byte in the middle of every cache entry. *)
let corrupt_entries dir =
  let n = ref 0 in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".bin" then begin
        incr n;
        let path = Filename.concat dir name in
        let data = Bytes.of_string (slurp path) in
        let i = Bytes.length data / 2 in
        Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x40));
        let oc = open_out_bin path in
        output_bytes oc data;
        close_out oc
      end)
    (Sys.readdir dir);
  !n

let assert_no_residue dir =
  Array.iter
    (fun name ->
      check Alcotest.bool (Printf.sprintf "no temp residue (%s)" name) false
        (contains ~needle:".tmp." name);
      check Alcotest.bool "no lock residue" false (String.equal name "lock"))
    (Sys.readdir dir)

let test_dpcc_cache_stat_clear () =
  let dir = fresh_cache_dir () in
  let code, out, _ = run [ dpcc; "cache"; "stat"; "--cache-dir"; dir ] in
  check Alcotest.int "stat on a missing store exits 0" 0 code;
  check Alcotest.bool "reports zero entries" true (contains ~needle:"entries: 0" out);
  let code, _, _ = run [ dpcc; "report"; "app:AST"; "--cache-dir"; dir ] in
  check Alcotest.int "report exits 0" 0 code;
  let code, out, _ = run [ dpcc; "cache"; "stat"; "--cache-dir"; dir ] in
  check Alcotest.int "stat exits 0" 0 code;
  check Alcotest.bool
    (Printf.sprintf "entries present (got %S)" out)
    false
    (contains ~needle:"entries: 0" out);
  check Alcotest.bool "last-run counters recorded" true (contains ~needle:"last run:" out);
  check Alcotest.bool "misses counted on the cold run" true (contains ~needle:"miss" out);
  let code, out, _ = run [ dpcc; "cache"; "clear"; "--cache-dir"; dir ] in
  check Alcotest.int "clear exits 0" 0 code;
  check Alcotest.bool "clear reports removals" true (contains ~needle:"removed" out);
  let _, out, _ = run [ dpcc; "cache"; "stat"; "--cache-dir"; dir ] in
  check Alcotest.bool "store empty after clear" true (contains ~needle:"entries: 0" out)

let test_dpcc_cache_stat_json () =
  let dir = fresh_cache_dir () in
  let code, out, _ = run [ dpcc; "cache"; "stat"; "--json"; "--cache-dir"; dir ] in
  check Alcotest.int "stat --json on a missing store exits 0" 0 code;
  check Alcotest.bool "zero entries" true (contains ~needle:"\"entries\": 0" out);
  check Alcotest.bool "no last-run counters yet" true
    (contains ~needle:"\"last_run\": null" out);
  let code, _, _ = run [ dpcc; "report"; "app:AST"; "--cache-dir"; dir ] in
  check Alcotest.int "report exits 0" 0 code;
  let code, out, _ = run [ dpcc; "cache"; "stat"; "--json"; "--cache-dir"; dir ] in
  check Alcotest.int "stat --json exits 0" 0 code;
  check Alcotest.bool
    (Printf.sprintf "entries counted (got %S)" out)
    false
    (contains ~needle:"\"entries\": 0" out);
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "counters have %s" needle) true
        (contains ~needle out))
    [ "\"hits\""; "\"misses\""; "\"corrupt\""; "\"dropped_writes\""; "\"quarantined\": 0" ];
  let code, _, _ = run [ dpcc; "cache"; "clear"; "--cache-dir"; dir ] in
  check Alcotest.int "clear exits 0" 0 code

let test_dpcc_cache_unknown_sub () =
  let code, _, err = run [ dpcc; "cache"; "bogus" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the offender" true (contains ~needle:"bogus" err);
  check Alcotest.bool "lists the cache commands" true
    (contains ~needle:"stat" err && contains ~needle:"clear" err)

(* The acceptance property: corrupt every entry between two runs — the
   second run must recover (exit 0) and print byte-identical figures,
   matching a --no-cache run exactly. *)
let test_dpcc_cache_corruption_recovery () =
  let dir = fresh_cache_dir () in
  let argv = [ dpcc; "report"; "app:AST"; "--cache-dir"; dir ] in
  let code, cold, err = run argv in
  check Alcotest.int (Printf.sprintf "cold report exits 0 (stderr %S)" err) 0 code;
  check Alcotest.bool "cold run populated the store" true (corrupt_entries dir > 0);
  let code, corrupted, err = run argv in
  check Alcotest.int (Printf.sprintf "corrupted-store report exits 0 (stderr %S)" err) 0 code;
  check Alcotest.string "output identical after corruption" cold corrupted;
  let code, uncached, _ = run [ dpcc; "report"; "app:AST"; "--no-cache" ] in
  check Alcotest.int "--no-cache report exits 0" 0 code;
  check Alcotest.string "output identical to --no-cache" cold uncached;
  let _, stat, _ = run [ dpcc; "cache"; "stat"; "--cache-dir"; dir ] in
  check Alcotest.bool
    (Printf.sprintf "stat shows quarantined corpses (got %S)" stat)
    false
    (contains ~needle:"quarantined: 0," stat);
  (* The recovery rewrote the entries: a third run hits. *)
  let code, warm, _ = run argv in
  check Alcotest.int "recovered report exits 0" 0 code;
  check Alcotest.string "output identical after recovery" cold warm;
  let _, stat, _ = run [ dpcc; "cache"; "stat"; "--cache-dir"; dir ] in
  check Alcotest.bool
    (Printf.sprintf "warm run hit the rewritten entries (got %S)" stat)
    false
    (contains ~needle:"0 hit(s)" stat);
  assert_no_residue dir

(* Two invocations racing on the same empty store: the advisory lock
   serializes publication; both must succeed with identical output and
   leave no temp or lock files behind.  (fcntl locks are per-process,
   so this needs real concurrent processes, not domains.) *)
let test_dpcc_cache_concurrent () =
  let dir = fresh_cache_dir () in
  let spawn out_path =
    let fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process dpcc
        [| dpcc; "report"; "app:AST"; "--cache-dir"; dir |]
        Unix.stdin fd null
    in
    Unix.close fd;
    Unix.close null;
    pid
  in
  let out1 = Filename.temp_file "dpower" ".out" and out2 = Filename.temp_file "dpower" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out1;
      Sys.remove out2)
    (fun () ->
      let p1 = spawn out1 in
      let p2 = spawn out2 in
      let wait pid =
        match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1
      in
      check Alcotest.int "first racer exits 0" 0 (wait p1);
      check Alcotest.int "second racer exits 0" 0 (wait p2);
      check Alcotest.string "racing runs print identical output" (slurp out1) (slurp out2);
      assert_no_residue dir)

(* --- trace formats: the binary codec, conversion, auto-detection --- *)

let with_temp_files n f =
  let paths = List.init n (fun _ -> Filename.temp_file "dpower" ".trace") in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f paths)

(* The nine golden trace shapes of the evaluation matrix: every
   restructuring mode and processor count the version rows replay, with
   and without a hint stream, plus an embedded fault window. *)
let golden_trace_shapes =
  [
    ("base-p1", [ "--procs"; "1" ]);
    ("base-p4", [ "--procs"; "4" ]);
    ("hints-p1", [ "--procs"; "1"; "--hints" ]);
    ("hints-p4", [ "--procs"; "4"; "--hints" ]);
    ("single-p1", [ "--procs"; "1"; "--restructure" ]);
    ("single-p4", [ "--procs"; "4"; "--restructure"; "--mode"; "single" ]);
    ("multi-p4", [ "--procs"; "4"; "--restructure"; "--mode"; "multi" ]);
    ("multi-hints-p4", [ "--procs"; "4"; "--restructure"; "--mode"; "multi"; "--hints" ]);
    ("faulted-p1", [ "--procs"; "1"; "--hints"; "--faults"; "42:0.01:sm" ]);
  ]

let test_dpcc_trace_format_roundtrip () =
  List.iter
    (fun (label, args) ->
      with_temp_files 4 @@ function
      | [ txt; bin; bin2; txt2 ] ->
          let code, _, err =
            run ([ dpcc; "trace"; "app:cholesky"; "-o"; txt; "--no-cache" ] @ args)
          in
          check Alcotest.int (Printf.sprintf "%s: text trace (stderr %S)" label err) 0 code;
          let code, _, _ =
            run
              ([ dpcc; "trace"; "app:cholesky"; "-o"; bin; "--format"; "bin"; "--no-cache" ]
              @ args)
          in
          check Alcotest.int (label ^ ": binary trace exits 0") 0 code;
          (* text -> bin reproduces the directly-emitted binary... *)
          let code, _, _ = run [ dpcc; "convert"; txt; bin2 ] in
          check Alcotest.int (label ^ ": convert to bin exits 0") 0 code;
          check Alcotest.bool (label ^ ": converted binary = direct binary") true
            (slurp bin = slurp bin2);
          (* ...and bin -> text closes the loop byte-identically. *)
          let code, _, _ = run [ dpcc; "convert"; bin; txt2 ] in
          check Alcotest.int (label ^ ": convert to text exits 0") 0 code;
          check Alcotest.bool (label ^ ": text -> bin -> text byte-identical") true
            (slurp txt = slurp txt2);
          check Alcotest.bool (label ^ ": binary is smaller than text") true
            (String.length (slurp bin) < String.length (slurp txt))
      | _ -> assert false)
    golden_trace_shapes

let test_dpcc_trace_bin_needs_output () =
  let code, _, err = run [ dpcc; "trace"; "app:AST"; "--format"; "bin"; "--no-cache" ] in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool
    (Printf.sprintf "points at -o (got %S)" err)
    true (contains ~needle:"-o" err);
  let code, _, err = run [ dpcc; "trace"; "app:AST"; "--format"; "xml"; "--no-cache" ] in
  check Alcotest.int "unknown format exits 2" 2 code;
  check Alcotest.bool "names the choices" true (contains ~needle:"text | bin" err)

let test_dpcc_convert_errors () =
  with_temp_files 1 @@ function
  | [ out ] ->
      let code, _, err = run [ dpcc; "convert"; "/nonexistent.trace"; out ] in
      check Alcotest.int "missing input exits 2" 2 code;
      check Alcotest.bool "one-line diagnostic" true (one_line err);
      with_trace_file "1.0 2.0 0 0 0 65536 R 0 0\n" (fun path ->
          let code, _, err = run [ dpcc; "convert"; path; out; "--format"; "xml" ] in
          check Alcotest.int "unknown format exits 2" 2 code;
          check Alcotest.bool "names the choices" true (contains ~needle:"text | bin" err))
  | _ -> assert false

(* A pipe can be read once.  With no --format, convert takes its
   direction from the format the loader read, so a binary trace piped
   through /dev/stdin comes out as the text a file path gives. *)
let test_dpcc_convert_pipe () =
  with_temp_files 4 @@ function
  | [ txt; bin; via_file; via_pipe ] ->
      let oc = open_out txt in
      output_string oc "1.000 2.000 0 0 0 65536 R 0 0\n3.500 0.500 0 65536 65536 4096 W 0 1\n";
      close_out oc;
      let code, _, _ = run [ dpcc; "convert"; txt; bin; "--format"; "bin" ] in
      check Alcotest.int "text -> bin exits 0" 0 code;
      let code, _, _ = run [ dpcc; "convert"; bin; via_file ] in
      check Alcotest.int "bin file -> text exits 0" 0 code;
      let err = Filename.temp_file "dpower" ".err" in
      Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
      let code =
        Sys.command
          (Printf.sprintf "cat %s | %s convert /dev/stdin %s 2> %s" (Filename.quote bin)
             (Filename.quote dpcc) (Filename.quote via_pipe) (Filename.quote err))
      in
      check Alcotest.int "piped convert exits 0" 0 code;
      check Alcotest.string "piped binary converts to the text a file path gives"
        (slurp via_file) (slurp via_pipe);
      let summary = String.trim (slurp err) in
      check Alcotest.bool
        (Printf.sprintf "summary ends (text) (got %S)" summary)
        true
        (String.ends_with ~suffix:"(text)" summary)
  | _ -> assert false

(* Strip dpsim's first stdout line (it names the trace file, which
   differs between the text and binary copies). *)
let drop_first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let test_dpsim_bin_autodetect () =
  with_temp_files 2 @@ function
  | [ txt; bin ] ->
      let gen fmt path =
        run
          [
            dpcc; "trace"; "app:cholesky"; "-p"; "2"; "--restructure"; "--hints";
            "--faults"; "7:0.02:m"; "-o"; path; "--format"; fmt; "--no-cache";
          ]
      in
      let code, _, _ = gen "text" txt in
      check Alcotest.int "text trace exits 0" 0 code;
      let code, _, _ = gen "bin" bin in
      check Alcotest.int "binary trace exits 0" 0 code;
      let codea, outa, _ = run [ dpsim; txt; "--policy"; "tpm"; "--proactive" ] in
      let codeb, outb, _ = run [ dpsim; bin; "--policy"; "tpm"; "--proactive" ] in
      check Alcotest.int "text run exits 0" 0 codea;
      check Alcotest.int "binary run exits 0" 0 codeb;
      check Alcotest.string "identical simulation from either format"
        (drop_first_line outa) (drop_first_line outb)
  | _ -> assert false

let test_dpsim_truncated_bin () =
  with_temp_files 2 @@ function
  | [ bin; trunc ] ->
      let code, _, _ =
        run
          [
            dpcc; "trace"; "app:cholesky"; "-o"; bin; "--format"; "bin"; "--no-cache";
          ]
      in
      check Alcotest.int "binary trace exits 0" 0 code;
      let data = slurp bin in
      let oc = open_out_bin trunc in
      output_string oc (String.sub data 0 (String.length data / 2));
      close_out oc;
      let code, _, err = run [ dpsim; trunc ] in
      check Alcotest.int "truncated binary exits 2" 2 code;
      check Alcotest.bool "one-line diagnostic" true (one_line err);
      check Alcotest.bool
        (Printf.sprintf "names file:offset (got %S)" err)
        true
        (contains ~needle:(trunc ^ ":") err && contains ~needle:"truncated" err)
  | _ -> assert false

(* --- intra-run sharding flags --- *)

let test_cli_bad_shards () =
  List.iter
    (fun sub ->
      let code, _, err = run [ dpcc; sub; "app:AST"; "--shards"; "0" ] in
      check Alcotest.int (sub ^ " --shards 0 exit code") 2 code;
      check Alcotest.bool
        (Printf.sprintf "%s names --shards (got %S)" sub err)
        true (contains ~needle:"--shards" err))
    [ "simulate"; "report"; "fault-sweep" ];
  let code, _, err = run [ dpcc; "serve"; "--tenants"; "1"; "--shards"; "0" ] in
  check Alcotest.int "serve --shards 0 exit code" 2 code;
  check Alcotest.bool "serve names --shards" true (contains ~needle:"--shards" err);
  with_trace_file "1.0 2.0 0 0 0 65536 R 0 0\n" (fun path ->
      let code, _, err = run [ dpsim; path; "--shards"; "0" ] in
      check Alcotest.int "dpsim --shards 0 exit code" 2 code;
      check Alcotest.bool "dpsim names --shards" true (contains ~needle:"--shards" err);
      let code, _, err = run [ dpsim; path; "--shards"; "2"; "--live" ] in
      check Alcotest.int "dpsim --live with shards exit code" 2 code;
      check Alcotest.bool "names --live" true (contains ~needle:"--live" err))

let test_dpcc_simulate_shards_identity () =
  let simulate shards =
    run
      ([
         dpcc; "simulate"; "app:cholesky"; "-p"; "4"; "--restructure"; "--mode"; "multi";
         "--policy"; "drpm-proactive"; "--per-disk"; "--timeline"; "--no-cache";
       ]
      @ shards)
  in
  let code1, out1, _ = simulate [] in
  check Alcotest.int "serial exits 0" 0 code1;
  (* Pin the serial output itself, chart and per-disk stats, not only
     its agreement across shard counts. *)
  check Alcotest.string "serial output pinned" "2e8a60e1e5cc535e6e03f5cefffe6e95"
    (Digest.to_hex (Digest.string out1));
  List.iter
    (fun n ->
      let code, out, _ = simulate [ "--shards"; n ] in
      check Alcotest.int (Printf.sprintf "--shards %s exits 0" n) 0 code;
      check Alcotest.string (Printf.sprintf "--shards %s byte-identical" n) out1 out)
    [ "1"; "4" ]

(* --- cache stat: every cached stage is one format --- *)

let test_dpcc_cache_stat_formats () =
  let dir = fresh_cache_dir () in
  (* A proactive simulate stores the trace and its hint stream. *)
  let code, _, _ =
    run
      [
        dpcc; "simulate"; "app:cholesky"; "--policy"; "tpm-proactive"; "--cache-dir"; dir;
      ]
  in
  check Alcotest.int "simulate exits 0" 0 code;
  (* Both payloads are binary trace frames: past the two header lines
     of the store's frame, each starts with the codec's magic. *)
  let entries =
    List.filter
      (fun n -> Filename.check_suffix n ".bin")
      (Array.to_list (Sys.readdir dir))
  in
  check Alcotest.int "trace and hints stored" 2 (List.length entries);
  List.iter
    (fun name ->
      let data = slurp (Filename.concat dir name) in
      let payload = String.index_from data (String.index data '\n' + 1) '\n' + 1 in
      check Alcotest.string (name ^ " holds a binary trace frame") Dp_trace.Bin.magic
        (String.sub data payload (String.length Dp_trace.Bin.magic)))
    entries;
  let code, out, _ = run [ dpcc; "cache"; "stat"; "--cache-dir"; dir ] in
  check Alcotest.int "stat exits 0" 0 code;
  check Alcotest.bool
    (Printf.sprintf "counts both entries in human units (got %S)" out)
    true
    (contains ~needle:"entries: 2 (" out
    && (contains ~needle:" B)" out || contains ~needle:" KB)" out
       || contains ~needle:" MB)" out));
  check Alcotest.bool "no per-format split" false
    (contains ~needle:"binary traces" out || contains ~needle:"marshal" out);
  let code, out, _ = run [ dpcc; "cache"; "stat"; "--json"; "--cache-dir"; dir ] in
  check Alcotest.int "stat --json exits 0" 0 code;
  check Alcotest.bool "json counts both entries" true (contains ~needle:"\"entries\": 2" out);
  check Alcotest.bool "json has no per-format block" false
    (contains ~needle:"\"formats\"" out);
  let code, _, _ = run [ dpcc; "cache"; "clear"; "--cache-dir"; dir ] in
  check Alcotest.int "clear exits 0" 0 code

(* A warm binary-trace cache reproduces the cold run byte for byte. *)
let test_dpcc_cache_warm_bin_identity () =
  let dir = fresh_cache_dir () in
  let report () =
    run [ dpcc; "report"; "app:cholesky"; "-p"; "2"; "--cache-dir"; dir ]
  in
  let code1, cold, _ = report () in
  check Alcotest.int "cold run exits 0" 0 code1;
  let code2, warm, _ = report () in
  check Alcotest.int "warm run exits 0" 0 code2;
  check Alcotest.string "warm = cold byte for byte" cold warm;
  let code, _, _ = run [ dpcc; "cache"; "clear"; "--cache-dir"; dir ] in
  check Alcotest.int "clear exits 0" 0 code

(* --- fault/knob diagnostics echo the offending value (exit 2) --- *)

let test_cli_fault_spec_echoes_value () =
  (* Every bad value exits 2 with a one-line diagnostic that names the
     flag and echoes the value; a flag both binaries take is checked in
     both. *)
  with_trace_file "1.0 2.0 0 0 0 1024 R 0 0\n" @@ fun path ->
  let serve = [ dpcc; "serve"; "--tenants"; "1"; "--no-cache" ] in
  let sim = [ dpsim; path ] in
  let both args needles = [ (sim @ args, needles); (serve @ args, needles) ] in
  List.iter
    (fun (argv, needles) ->
      let code, _, err = run argv in
      let cmd = String.concat " " (List.map Filename.basename argv) in
      check Alcotest.int (cmd ^ ": exit code") 2 code;
      check Alcotest.bool (cmd ^ ": one-line diagnostic") true (one_line err);
      List.iter
        (fun needle ->
          check Alcotest.bool
            (Printf.sprintf "%s: names %S (got %S)" cmd needle err)
            true (contains ~needle err))
        needles)
    (List.concat
       [
         both [ "--faults"; "5:1.5:all" ] [ "--faults"; "1.5" ];
         both [ "--faults"; "5:nan:all" ] [ "--faults"; "nan" ];
         both [ "--spare"; "0" ] [ "--spare"; "(got 0)" ];
         both [ "--deadline"; "nan" ] [ "--deadline"; "nan" ];
         both [ "--scrub-ms"; "nan" ] [ "--scrub-ms"; "nan" ];
         both [ "--disks"; "0" ] [ "--disks"; "(got 0)" ];
         [
           ([ dpcc; "simulate"; "app:AST"; "--faults"; "5:1.5:all" ], [ "--faults"; "1.5" ]);
           ([ dpcc; "simulate"; "app:AST"; "--faults"; "5:0.1:q" ], [ "--faults"; "q" ]);
           (sim @ [ "--policy"; "tpm"; "--tpm-threshold"; "nan" ], [ "--tpm-threshold"; "nan" ]);
           (sim @ [ "--policy"; "tpm"; "--tpm-threshold=-5" ], [ "--tpm-threshold"; "-5" ]);
           (sim @ [ "--policy"; "drpm"; "--drpm-window"; "0" ], [ "--drpm-window"; "(got 0)" ]);
           ( sim @ [ "--policy"; "drpm"; "--drpm-downshift-ms"; "nan" ],
             [ "--drpm-downshift-ms"; "nan" ] );
           (serve @ [ "--jitter-ms"; "nan" ], [ "--jitter-ms"; "nan" ]);
           ( [ dpcc; "fault-sweep"; "app:AST"; "--rates"; "0,1.5"; "--no-cache" ],
             [ "--rates"; "1.5" ] );
         ];
       ])

(* dpsim's repair, deadline and spare paths on one FFT trace, pinned
   byte for byte (stdout without its trace-path line). *)
let test_dpsim_knobs_pinned () =
  with_temp_files 1 @@ function
  | [ trace ] ->
      let code, _, _ =
        run [ dpcc; "trace"; "app:FFT"; "-p"; "4"; "--restructure"; "--no-cache"; "-o"; trace ]
      in
      check Alcotest.int "trace exits 0" 0 code;
      List.iter
        (fun (args, md5) ->
          let code, out, _ = run ((dpsim :: trace :: args) @ [ "--per-disk" ]) in
          check Alcotest.int (String.concat " " args ^ ": exit code") 0 code;
          let body =
            List.filter
              (fun l -> not (String.starts_with ~prefix:"trace:" l))
              (String.split_on_char '\n' out)
          in
          check Alcotest.string (String.concat " " args) md5
            (Digest.to_hex (Digest.string (String.concat "\n" body))))
        [
          ( [ "--policy"; "drpm"; "--faults"; "3:0.5:mlrd"; "--deadline"; "15"; "--scrub-ms";
              "40"; "--spare"; "64" ],
            "0575de70799abc40c7564e6e622f1390" );
          ([ "--policy"; "tpm"; "--faults"; "11:0.3:d" ], "e6fea02732decd4a40323813b0db2fb0");
          ( [ "--policy"; "online"; "--faults"; "9:0.4:all"; "--deadline"; "30"; "--scrub-ms";
              "20" ],
            "c59752503c576dc954d142561e87716d" );
        ]
  | _ -> assert false

(* --- binary-trace truncation points (satellite: framing diagnostics) ---

   Chop a binary trace inside the first chunk header and inside the
   end-of-trace trailer; both dpsim and dpcc convert must exit 2 with a
   one-line file:offset: diagnostic. *)

let test_bin_truncation_points () =
  with_temp_files 3 @@ function
  | [ bin; hdr; trl ] ->
      let code, _, _ =
        run [ dpcc; "trace"; "app:cholesky"; "-o"; bin; "--format"; "bin"; "--no-cache" ]
      in
      check Alcotest.int "binary trace exits 0" 0 code;
      let data = slurp bin in
      let write path contents =
        let oc = open_out_bin path in
        output_string oc contents;
        close_out oc
      in
      (* Offset 5 starts the first chunk header (magic + version byte);
         7 bytes keeps only part of its length field. *)
      write hdr (String.sub data 0 7);
      (* Dropping the final byte leaves the 'E' trailer without its
         record count. *)
      write trl (String.sub data 0 (String.length data - 1));
      List.iter
        (fun (path, needle) ->
          let code, _, err = run [ dpsim; path ] in
          check Alcotest.int (Printf.sprintf "dpsim %s exits 2" needle) 2 code;
          check Alcotest.bool "one-line diagnostic" true (one_line err);
          check Alcotest.bool
            (Printf.sprintf "dpsim names file:offset and %s (got %S)" needle err)
            true
            (contains ~needle:(path ^ ":") err
            && contains ~needle:"truncated" err
            && contains ~needle err);
          let code, _, err = run [ dpcc; "convert"; path; path ^ ".out" ] in
          check Alcotest.int (Printf.sprintf "convert %s exits 2" needle) 2 code;
          check Alcotest.bool
            (Printf.sprintf "convert names file:offset and %s (got %S)" needle err)
            true
            (contains ~needle:(path ^ ":") err
            && contains ~needle:"truncated" err
            && contains ~needle err))
        [ (hdr, "chunk length"); (trl, "end-of-trace") ]
  | _ -> assert false

(* A directory in place of a trace file is unreadable input: both tools
   exit 2 naming the path, with the system error at position 0. *)
let test_trace_path_is_directory () =
  let dir = Filename.temp_dir "dpower" ".dir" in
  let out = dir ^ ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out with Sys_error _ -> ());
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (tool, argv) ->
          let code, _, err = run argv in
          check Alcotest.int (tool ^ ": exit code") 2 code;
          check Alcotest.bool (tool ^ ": one-line diagnostic") true (one_line err);
          check Alcotest.bool
            (Printf.sprintf "%s: names the path (got %S)" tool err)
            true
            (contains ~needle:(dir ^ ":0: Is a directory") err))
        [ ("dpsim", [ dpsim; dir ]); ("dpcc convert", [ dpcc; "convert"; dir; out ]) ])

(* --- the chaos soak --- *)

let chaos_dir_counter = ref 0

let fresh_chaos_dir () =
  incr chaos_dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dpower-cli-chaos-%d-%d" (Unix.getpid ()) !chaos_dir_counter)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let test_dpcc_chaos_green () =
  let dir = fresh_chaos_dir () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let code, out, _ =
        run [ dpcc; "chaos"; "--seed"; "42"; "--budget"; "10"; "--out"; dir ]
      in
      check Alcotest.int "green soak exits 0" 0 code;
      check Alcotest.bool
        (Printf.sprintf "summary reports 0 findings (got %S)" out)
        true
        (contains ~needle:"10 scenarios" out && contains ~needle:"0 findings" out);
      check Alcotest.bool "no reproducers written" true (not (Sys.file_exists dir));
      let code, json, _ =
        run [ dpcc; "chaos"; "--seed"; "42"; "--budget"; "3"; "--out"; dir; "--json" ]
      in
      check Alcotest.int "json soak exits 0" 0 code;
      List.iter
        (fun needle ->
          check Alcotest.bool (Printf.sprintf "json has %s" needle) true
            (contains ~needle json))
        [ "\"seed\": 42"; "\"scenarios\": 3"; "\"findings\": []" ])

let test_dpcc_chaos_bad_flags () =
  let code, _, err = run [ dpcc; "chaos"; "--budget"; "0" ] in
  check Alcotest.int "--budget 0 exits 2" 2 code;
  check Alcotest.bool "names --budget" true (contains ~needle:"--budget" err);
  let code, _, err = run [ dpcc; "chaos"; "--sabotage"; "bogus"; "--budget"; "1" ] in
  check Alcotest.int "unknown --sabotage exits 2" 2 code;
  check Alcotest.bool
    (Printf.sprintf "echoes the kind (got %S)" err)
    true
    (contains ~needle:"bogus" err && contains ~needle:"energy" err);
  let code, _, err = run [ dpcc; "chaos"; "--replay"; "/nonexistent-chaos-dir" ] in
  check Alcotest.int "bad --replay exits 2" 2 code;
  check Alcotest.bool "names the directory" true
    (contains ~needle:"/nonexistent-chaos-dir" err)

(* The acceptance loop: a deliberately broken invariant is caught,
   shrunk to a minimal scenario, and the written reproducer replays the
   violation deterministically. *)
let test_dpcc_chaos_sabotage_shrink_replay () =
  let dir = fresh_chaos_dir () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let code, out, _ =
        run
          [
            dpcc; "chaos"; "--seed"; "7"; "--budget"; "1"; "--shrink"; "--sabotage";
            "energy"; "--out"; dir;
          ]
      in
      check Alcotest.int "sabotaged soak exits 1" 1 code;
      check Alcotest.bool "reports the finding" true (contains ~needle:"1 finding" out);
      let repro =
        match Array.to_list (Sys.readdir dir) with
        | [ d ] -> Filename.concat dir d
        | _ -> Alcotest.fail "expected exactly one reproducer directory"
      in
      let diff = slurp (Filename.concat repro "diff.txt") in
      check Alcotest.bool
        (Printf.sprintf "shrunk to one nest, no faults (got %S)" diff)
        true
        (contains ~needle:"1 nest," diff && contains ~needle:"no faults" diff);
      check Alcotest.bool "diff names the broken invariant" true
        (contains ~needle:"energy-conservation" diff);
      List.iter
        (fun f ->
          check Alcotest.bool (f ^ " present") true
            (Sys.file_exists (Filename.concat repro f)))
        [ "scenario.dpl"; "scenario.spec"; "trace.txt"; "replay.cmd" ];
      (* The emitted replay line reproduces the violation... *)
      let code, out, _ =
        run [ dpcc; "chaos"; "--replay"; repro; "--sabotage"; "energy" ]
      in
      check Alcotest.int "replay under sabotage exits 1" 1 code;
      check Alcotest.bool "replay reports the violation" true
        (contains ~needle:"energy-conservation" out);
      (* ... and the same directory is clean once the hook is off. *)
      let code, out, _ = run [ dpcc; "chaos"; "--replay"; repro ] in
      check Alcotest.int "clean replay exits 0" 0 code;
      check Alcotest.bool "reports clean" true (contains ~needle:"clean" out))

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "dpsim malformed trace" `Quick test_dpsim_malformed_trace;
        Alcotest.test_case "dpsim unknown flag" `Quick test_dpsim_unknown_flag;
        Alcotest.test_case "dpsim bad --faults" `Quick test_dpsim_bad_faults_spec;
        Alcotest.test_case "dpsim usage" `Quick test_dpsim_usage;
        Alcotest.test_case "dpsim faulted run" `Quick test_dpsim_runs;
        Alcotest.test_case "version flags" `Quick test_version_flags;
        Alcotest.test_case "dpcc unknown command" `Quick test_dpcc_unknown_command;
        Alcotest.test_case "dpsim --obs gaps" `Quick test_dpsim_obs_gaps;
        Alcotest.test_case "dpsim --obs trace" `Quick test_dpsim_obs_trace;
        Alcotest.test_case "dpsim bad --obs mode" `Quick test_dpsim_obs_bad_mode;
        Alcotest.test_case "dpsim --obs with oracle" `Quick test_dpsim_obs_oracle_rejected;
        Alcotest.test_case "dpcc --profile" `Quick test_dpcc_profile;
        Alcotest.test_case "dpcc unknown flag" `Quick test_dpcc_unknown_flag;
        Alcotest.test_case "dpcc malformed source" `Quick test_dpcc_malformed_source;
        Alcotest.test_case "dpcc fault-sweep usage" `Quick test_dpcc_usage;
        Alcotest.test_case "dpcc --mode without --restructure" `Quick
          test_dpcc_mode_without_restructure;
        Alcotest.test_case "dpcc --mode multi at 1 proc" `Quick test_dpcc_mode_multi_one_proc;
        Alcotest.test_case "dpcc unknown --mode" `Quick test_dpcc_mode_unknown;
        Alcotest.test_case "dpcc --jobs 0" `Quick test_dpcc_bad_jobs;
        Alcotest.test_case "dpcc --procs 0" `Quick test_dpcc_bad_procs;
        Alcotest.test_case "dpcc out-of-bounds subscript" `Quick test_dpcc_out_of_bounds;
        Alcotest.test_case "dpcc serve --json deterministic" `Quick
          test_dpcc_serve_json_deterministic;
        Alcotest.test_case "dpcc serve human table" `Quick test_dpcc_serve_human_table;
        Alcotest.test_case "dpcc serve unknown --policy" `Quick test_dpcc_serve_bad_policy;
        Alcotest.test_case "dpcc serve --tenants 0" `Quick test_dpcc_serve_bad_tenants;
        Alcotest.test_case "dpcc serve --deadline 0" `Quick test_dpcc_serve_bad_deadline;
        Alcotest.test_case "dpcc serve negative --scrub-ms" `Quick test_dpcc_serve_bad_scrub;
        Alcotest.test_case "dpsim --live piped" `Quick test_dpsim_live_piped;
        Alcotest.test_case "dpsim --live with oracle" `Quick test_dpsim_live_oracle_rejected;
        Alcotest.test_case "dpcc serve --live" `Slow test_dpcc_serve_live_frames;
        Alcotest.test_case "dpcc obs diff self zero" `Quick test_dpcc_obs_diff_self_zero;
        Alcotest.test_case "dpcc obs diff --threshold" `Quick test_dpcc_obs_diff_threshold;
        Alcotest.test_case "dpcc obs unknown subcommand" `Quick test_dpcc_obs_unknown_sub;
        Alcotest.test_case "dpcc obs diff bad input" `Quick test_dpcc_obs_diff_bad_input;
        Alcotest.test_case "dpcc serve bad --faults" `Quick test_dpcc_serve_bad_faults;
        Alcotest.test_case "dpcc serve bad --decay" `Quick test_dpcc_serve_bad_decay;
        Alcotest.test_case "dpcc serve --decay availability" `Slow
          test_dpcc_serve_decay_reports_availability;
        Alcotest.test_case "dpcc serve --decay rate 0 identity" `Slow
          test_dpcc_serve_decay_rate_zero_identical;
        Alcotest.test_case "dpcc cache stat/clear" `Quick test_dpcc_cache_stat_clear;
        Alcotest.test_case "dpcc cache stat --json" `Slow test_dpcc_cache_stat_json;
        Alcotest.test_case "dpcc cache unknown subcommand" `Quick test_dpcc_cache_unknown_sub;
        Alcotest.test_case "dpcc cache corruption recovery" `Slow
          test_dpcc_cache_corruption_recovery;
        Alcotest.test_case "dpcc cache concurrent runs" `Slow test_dpcc_cache_concurrent;
        Alcotest.test_case "dpcc trace text/bin roundtrip" `Slow
          test_dpcc_trace_format_roundtrip;
        Alcotest.test_case "dpcc trace --format bin needs -o" `Quick
          test_dpcc_trace_bin_needs_output;
        Alcotest.test_case "dpcc convert errors" `Quick test_dpcc_convert_errors;
        Alcotest.test_case "dpcc convert reads a pipe once" `Quick test_dpcc_convert_pipe;
        Alcotest.test_case "dpsim binary auto-detect" `Slow test_dpsim_bin_autodetect;
        Alcotest.test_case "dpsim truncated binary" `Slow test_dpsim_truncated_bin;
        Alcotest.test_case "bad --shards" `Quick test_cli_bad_shards;
        Alcotest.test_case "dpcc simulate --shards identity" `Slow
          test_dpcc_simulate_shards_identity;
        Alcotest.test_case "dpcc cache stat formats" `Slow test_dpcc_cache_stat_formats;
        Alcotest.test_case "dpcc cache warm binary identity" `Slow
          test_dpcc_cache_warm_bin_identity;
        Alcotest.test_case "fault/knob diagnostics echo values" `Quick
          test_cli_fault_spec_echoes_value;
        Alcotest.test_case "dpsim reliability knobs pinned" `Slow test_dpsim_knobs_pinned;
        Alcotest.test_case "binary truncation points" `Slow test_bin_truncation_points;
        Alcotest.test_case "dpcc chaos green soak" `Slow test_dpcc_chaos_green;
        Alcotest.test_case "dpcc chaos bad flags" `Quick test_dpcc_chaos_bad_flags;
        Alcotest.test_case "dpcc chaos sabotage shrink replay" `Slow
          test_dpcc_chaos_sabotage_shrink_replay;
        Alcotest.test_case "dpsim --obs events" `Quick test_dpsim_obs_events;
        Alcotest.test_case "dpsim --disks too few" `Quick test_dpsim_too_few_disks;
        Alcotest.test_case "dpsim negative ids" `Quick test_dpsim_negative_ids;
        Alcotest.test_case "trace path is a directory" `Quick test_trace_path_is_directory;
      ] );
  ]
