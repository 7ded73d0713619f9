(* End-to-end harness tests: the version matrix on a compact synthetic
   application, plus a full-suite ordering check (slow). *)

module App = Dp_workloads.App
module Version = Dp_harness.Version
module Runner = Dp_harness.Runner
module Experiments = Dp_harness.Experiments
module Tabulate = Dp_harness.Tabulate
module Ir = Dp_ir.Ir
module A = Dp_affine.Affine

let check = Alcotest.check
let c = A.const

(* A compact app (a few thousand requests) exercising every version
   quickly: a ping-pong stencil like AST, scaled down. *)
let mini_app () =
  let k = App.counter () in
  let open App in
  let rows = 24 and cols = 23 and steps = 4 in
  let arrays =
    [
      Ir.array_decl ~elem_size:page_bytes "a" [ rows; cols ];
      Ir.array_decl ~elem_size:page_bytes "b" [ rows; cols ];
    ]
  in
  let sweep step =
    let src, dst = if step mod 2 = 0 then ("a", "b") else ("b", "a") in
    nest k
      [ ("i", c 0, c (rows - 2)); ("j", c 0, c (cols - 1)) ]
      [
        stmt k ~cycles:2_000_000
          [ rd src [ v "i"; v "j" ]; rd src [ v "i" +! 1; v "j" ]; wr dst [ v "i"; v "j" ] ];
      ]
  in
  let program = Ir.program arrays (List.init steps sweep) in
  {
    App.name = "mini";
    description = "scaled stencil for tests";
    program;
    striping = App.striping_of_rows ~row_pages:cols ~rows_per_stripe:1 ();
    overrides = App.staggered_overrides program;
    paper_data_gb = 0.0;
    paper_requests = 0;
    paper_base_energy_j = 0.0;
    paper_io_time_ms = 0.0;
  }

let test_version_names () =
  List.iter
    (fun v ->
      check Alcotest.bool (Version.name v) true (Version.of_name (Version.name v) = Some v))
    (Version.multi_cpu @ Version.oracle);
  check Alcotest.int "five single-CPU versions" 5 (List.length Version.single_cpu);
  check Alcotest.int "seven versions" 7 (List.length Version.multi_cpu);
  check Alcotest.int "two oracle rows" 2 (List.length Version.oracle);
  check Alcotest.bool "base not restructured" false (Version.restructured Version.Base);
  check Alcotest.bool "-m layout aware" true (Version.layout_aware Version.T_drpm_m);
  (* The oracle rows are bounds, not policies: not restructured, tagged
     with their transition space. *)
  List.iter
    (fun v ->
      check Alcotest.bool "oracle not restructured" false (Version.restructured v);
      check Alcotest.bool "oracle space set" true (Version.oracle_space v <> None))
    Version.oracle;
  check Alcotest.bool "paper versions carry no space" true
    (List.for_all (fun v -> Version.oracle_space v = None) Version.multi_cpu)

let test_single_cpu_matrix () =
  let ctx = Runner.context (mini_app ()) in
  let base = Runner.run ctx ~procs:1 Version.Base in
  check (Alcotest.float 1e-9) "base normalizes to 1" 1.0
    (Runner.normalized_energy ~base base);
  check (Alcotest.float 1e-9) "base degradation 0" 0.0 (Runner.perf_degradation ~base base);
  List.iter
    (fun v ->
      let r = Runner.run ctx ~procs:1 v in
      let e = Runner.normalized_energy ~base r in
      check Alcotest.bool
        (Printf.sprintf "%s energy sane (%.3f)" (Version.name v) e)
        true
        (e > 0.2 && e < 1.5);
      if Version.restructured v then
        check Alcotest.bool "restructured reports rounds" true (r.Runner.scheduler_rounds <> None))
    Version.single_cpu

let test_multi_cpu_matrix () =
  let ctx = Runner.context (mini_app ()) in
  let base = Runner.run ctx ~procs:4 Version.Base in
  List.iter
    (fun v ->
      let r = Runner.run ctx ~procs:4 v in
      check Alcotest.bool
        (Printf.sprintf "%s runs at 4 procs" (Version.name v))
        true
        (Runner.normalized_energy ~base r > 0.2))
    Version.multi_cpu;
  (* Layout-aware requires several processors. *)
  match Runner.run ctx ~procs:1 Version.T_tpm_m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "T-*-m at 1 proc must be rejected"

let test_matrix_and_renderers () =
  let apps = [ mini_app () ] in
  let matrix =
    Experiments.build_matrix ~apps ~procs:1
      ~versions:[ Version.Base; Version.Tpm; Version.T_drpm_s ]
      ()
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.table1 ppf;
  Experiments.table2 ~matrix ppf;
  Experiments.fig_energy matrix ppf;
  Experiments.fig_perf matrix ppf;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  List.iter
    (fun frag ->
      check Alcotest.bool (Printf.sprintf "report mentions %S" frag) true
        (let n = String.length out and m = String.length frag in
         let rec go i = i + m <= n && (String.sub out i m = frag || go (i + 1)) in
         m = 0 || go 0))
    [ "Ultrastar"; "Table 2"; "Figure 9(a)"; "Figure 10(a)"; "T-DRPM-s"; "mini" ];
  let saving = Experiments.average_energy_saving matrix Version.T_drpm_s in
  check Alcotest.bool "saving computed" true (saving > -0.5 && saving < 1.0)

let test_oracle_rows () =
  (* The Oracle-* rows floor their reactive counterparts on the same
     (unmodified-code) trace, and still beat the analytic standby floor. *)
  let ctx = Runner.context (mini_app ()) in
  let base = Runner.run ctx ~procs:1 Version.Base in
  let energy v = (Runner.run ctx ~procs:1 v).Runner.result.Dp_disksim.Engine.energy_j in
  let o_tpm = energy Version.Oracle_tpm and o_drpm = energy Version.Oracle_drpm in
  check Alcotest.bool "Oracle-TPM <= TPM" true (o_tpm <= energy Version.Tpm +. 1e-6);
  check Alcotest.bool "Oracle-TPM <= Base" true
    (o_tpm <= base.Runner.result.Dp_disksim.Engine.energy_j +. 1e-6);
  check Alcotest.bool "Oracle-DRPM <= DRPM" true (o_drpm <= energy Version.Drpm +. 1e-6);
  let floor = Dp_oracle.Oracle.standby_floor_j base.Runner.result in
  check Alcotest.bool "bounds above the standby floor" true
    (floor <= o_tpm && floor <= o_drpm);
  (* Oracle rows slot into the matrix renderers like any other version. *)
  let matrix =
    Experiments.build_matrix ~apps:[ mini_app () ] ~procs:1
      ~versions:([ Version.Base; Version.Tpm; Version.Drpm ] @ Version.oracle)
      ()
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.fig_energy matrix ppf;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  List.iter
    (fun frag ->
      check Alcotest.bool (Printf.sprintf "figure mentions %S" frag) true
        (let n = String.length out and m = String.length frag in
         let rec go i = i + m <= n && (String.sub out i m = frag || go (i + 1)) in
         m = 0 || go 0))
    [ "Oracle-TPM"; "Oracle-DRPM" ]

let test_tabulate () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Tabulate.render ppf ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "x" ]; [ "22"; "yyy" ] ];
  Format.pp_print_flush ppf ();
  check Alcotest.bool "nonempty" true (String.length (Buffer.contents buf) > 10);
  check Alcotest.string "pct" "18.34%" (Tabulate.fmt_pct 0.18335);
  check Alcotest.string "norm" "0.817" (Tabulate.fmt_norm 0.8166)

(* The headline reproduction claim, on the real suite (slow): on one
   processor, restructuring amplifies both policies and T-DRPM-s wins. *)
let test_headline_orderings () =
  let matrix =
    Experiments.build_matrix ~procs:1
      ~versions:[ Version.Base; Version.Tpm; Version.Drpm; Version.T_tpm_s; Version.T_drpm_s ]
      ()
  in
  let saving = Experiments.average_energy_saving matrix in
  let tpm = saving Version.Tpm
  and drpm = saving Version.Drpm
  and t_tpm = saving Version.T_tpm_s
  and t_drpm = saving Version.T_drpm_s in
  check Alcotest.bool (Printf.sprintf "TPM alone saves nothing (%.3f)" tpm) true
    (abs_float tpm < 0.02);
  check Alcotest.bool (Printf.sprintf "DRPM saves (%.3f)" drpm) true (drpm > 0.02);
  check Alcotest.bool (Printf.sprintf "T-TPM-s beats TPM (%.3f)" t_tpm) true (t_tpm > tpm +. 0.05);
  check Alcotest.bool
    (Printf.sprintf "T-DRPM-s best (%.3f > %.3f, %.3f)" t_drpm drpm t_tpm)
    true
    (t_drpm > drpm && t_drpm >= t_tpm -. 0.01);
  (* Performance stays bounded, as in Fig. 10(a). *)
  let deg = Experiments.average_perf_degradation matrix in
  List.iter
    (fun v ->
      check Alcotest.bool
        (Printf.sprintf "%s perf within 15%%" (Version.name v))
        true
        (abs_float (deg v) < 0.15))
    [ Version.Tpm; Version.Drpm; Version.T_tpm_s; Version.T_drpm_s ]

(* --- fault injection through the harness --- *)

module Fault_model = Dp_faults.Fault_model
module Knobs = Dp_disksim.Knobs
module Engine = Dp_disksim.Engine

let mentions out frags =
  List.iter
    (fun frag ->
      check Alcotest.bool (Printf.sprintf "output mentions %S" frag) true
        (let n = String.length out and m = String.length frag in
         let rec go i = i + m <= n && (String.sub out i m = frag || go (i + 1)) in
         m = 0 || go 0))
    frags

let test_rate_zero_matrix_unchanged () =
  (* A rate-0 injector must leave every row — including the Oracle
     bounds — bit-identical to the fault-free matrix. *)
  let apps = [ mini_app () ] in
  let versions = [ Version.Base; Version.Tpm; Version.T_drpm_s ] @ Version.oracle in
  let clean = Experiments.build_matrix ~apps ~procs:1 ~versions () in
  let knobs = { Knobs.none with faults = Some (Fault_model.make ~seed:42 ~rate:0.0 ()) } in
  let armed = Experiments.build_matrix ~apps ~procs:1 ~knobs ~versions () in
  List.iter2
    (fun (_, clean_runs) (_, armed_runs) ->
      List.iter2
        (fun (v, (a : Runner.run)) (_, (b : Runner.run)) ->
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s energy identical" (Version.name v))
            a.Runner.result.Dp_disksim.Engine.energy_j
            b.Runner.result.Dp_disksim.Engine.energy_j;
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s makespan identical" (Version.name v))
            a.Runner.result.Dp_disksim.Engine.makespan_ms
            b.Runner.result.Dp_disksim.Engine.makespan_ms)
        clean_runs armed_runs)
    clean armed

let test_reliability_aggregate () =
  let ctx = Runner.context (mini_app ()) in
  let knobs = { Knobs.none with faults = Some (Fault_model.make ~seed:11 ~rate:0.2 ()) } in
  let r = Runner.run ctx ~knobs ~procs:1 Version.Tpm in
  let rel = Engine.totals r.Runner.result in
  check Alcotest.bool "wear in [0,1]" true (rel.Engine.wear >= 0.0 && rel.Engine.wear <= 1.0);
  check Alcotest.bool "some recovery effort at rate 0.2" true
    (rel.Engine.spin_up_retries + rel.Engine.media_retries + rel.Engine.latency_spikes > 0);
  check Alcotest.bool "degraded time non-negative" true (rel.Engine.degraded_ms >= 0.0);
  (* Fault-free runs have a clean reliability block. *)
  let clean = Engine.totals (Runner.run ctx ~procs:1 Version.Tpm).Runner.result in
  check Alcotest.int "no retries without faults" 0
    (clean.Engine.spin_up_retries + clean.Engine.media_retries + clean.Engine.latency_spikes);
  check (Alcotest.float 0.0) "no degraded time without faults" 0.0 clean.Engine.degraded_ms

let test_fault_sweep_deterministic () =
  let app = mini_app () in
  let versions = [ Version.Base; Version.Tpm ] in
  let sweep () =
    Experiments.fault_sweep ~seed:9 ~rates:[ 0.0; 0.05 ] ~procs:1 ~versions app
  in
  let a = sweep () and b = sweep () in
  let energies (s : Experiments.sweep) =
    List.map
      (fun (p : Experiments.sweep_point) ->
        ( p.Experiments.rate,
          List.map
            (fun (_, (r : Runner.run)) -> r.Runner.result.Dp_disksim.Engine.energy_j)
            p.Experiments.runs ))
      s.Experiments.points
  in
  check Alcotest.bool "same seed, same sweep" true (energies a = energies b);
  (* The rate-0 point of the sweep equals the fault-free run. *)
  let ctx = Runner.context app in
  let clean = Runner.run ctx ~procs:1 Version.Tpm in
  match a.Experiments.points with
  | p0 :: _ ->
      check (Alcotest.float 0.0) "rate-0 point is the clean run"
        clean.Runner.result.Dp_disksim.Engine.energy_j
        (List.assoc Version.Tpm p0.Experiments.runs).Runner.result
          .Dp_disksim.Engine.energy_j
  | [] -> Alcotest.fail "sweep has no points"

let test_fault_renderers () =
  let sweep =
    Experiments.fault_sweep ~seed:3 ~rates:[ 0.0; 0.1 ] ~procs:1
      ~versions:[ Version.Base; Version.Tpm ] (mini_app ())
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.fig_sweep sweep ppf;
  Format.pp_print_flush ppf ();
  mentions (Buffer.contents buf) [ "Rate"; "mini" ];
  (* And the sweep serializes. *)
  let json = Dp_harness.Json_out.to_string (Dp_harness.Json_out.of_sweep sweep) in
  mentions json [ "\"rate\""; "\"reliability\""; "degraded_ms"; "mini" ]

let test_json_out () =
  let module J = Dp_harness.Json_out in
  check Alcotest.string "escaping" "{\"a\\\"b\": \"x\\ny\"}"
    (J.to_string (J.Obj [ ("a\"b", J.String "x\ny") ]));
  check Alcotest.string "nan becomes null" "null" (J.to_string (J.Float Float.nan));
  check Alcotest.string "list" "[1, true, null]"
    (J.to_string (J.List [ J.Int 1; J.Bool true; J.Null ]));
  (* Matrix serialization is structurally complete. *)
  let matrix =
    Experiments.build_matrix ~apps:[ mini_app () ] ~procs:1
      ~versions:[ Version.Base; Version.Drpm ] ()
  in
  let json = J.to_string (J.of_matrix matrix) in
  List.iter
    (fun frag ->
      check Alcotest.bool (Printf.sprintf "json mentions %S" frag) true
        (let n = String.length json and m = String.length frag in
         let rec go i = i + m <= n && (String.sub json i m = frag || go (i + 1)) in
         m = 0 || go 0))
    [ "\"app\""; "\"mini\""; "normalized_energy"; "DRPM"; "io_time_ms" ]

(* The serializer is checked by parsing what it prints with the one
   library parser. *)
let reparse s =
  match Dp_util.Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.fail ("json parse: " ^ e)

let test_json_escaping_roundtrip () =
  let module J = Dp_harness.Json_out in
  let tricky =
    J.Obj
      [
        ("we\"ird\nkey", J.String "tab\there, quote\", slash\\, bell\007");
        ("nan", J.Float Float.nan);
        ("inf", J.Float Float.infinity);
        ("empty", J.List []);
      ]
  in
  match reparse (J.to_string tricky) with
  | J.Obj [ (k, J.String v); ("nan", J.Null); ("inf", J.Null); ("empty", J.List []) ] ->
      check Alcotest.string "key unescaped" "we\"ird\nkey" k;
      check Alcotest.string "value unescaped" "tab\there, quote\", slash\\, bell\007" v
  | _ -> Alcotest.fail "tricky object did not round-trip"

let test_json_obs_roundtrip () =
  let module J = Dp_harness.Json_out in
  let matrix =
    Experiments.build_matrix ~apps:[ mini_app () ] ~procs:1 ~obs:true
      ~versions:[ Version.Base; Version.Tpm ] ()
  in
  let json = J.to_string (J.of_matrix matrix) in
  let parsed = reparse json in
  (* The printer is stable over its own parse: nothing is lost. *)
  check Alcotest.string "print/parse/print fixed point" json (J.to_string parsed);
  let field k = function
    | J.Obj fields -> (
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> Alcotest.fail (Printf.sprintf "missing field %S" k))
    | _ -> Alcotest.fail (Printf.sprintf "expected object around %S" k)
  in
  let runs =
    match parsed with
    | J.List (app :: _) -> ( match field "runs" app with J.List rs -> rs | _ -> [])
    | _ -> Alcotest.fail "expected app list"
  in
  check Alcotest.int "both runs serialized" 2 (List.length runs);
  (* Parsed obs blocks agree with the in-memory reports. *)
  let in_memory =
    match matrix with
    | [ (_, runs) ] -> List.map (fun (_, (r : Runner.run)) -> Option.get r.Runner.obs) runs
    | _ -> Alcotest.fail "one-app matrix expected"
  in
  List.iter2
    (fun run reports ->
      match field "obs" run with
      | J.List parsed_reports ->
          check Alcotest.int "one entry per disk" (Array.length reports)
            (List.length parsed_reports);
          List.iteri
            (fun d rep ->
              check Alcotest.bool "disk index" true (field "disk" rep = J.Int d);
              check Alcotest.bool "request count survives" true
                (field "requests" rep = J.Int reports.(d).Dp_obs.Report.requests);
              match field "idle_gaps" rep with
              | J.Obj _ as h ->
                  let counts =
                    match field "counts" h with
                    | J.List cs ->
                        List.fold_left
                          (fun acc c -> match c with J.Int i -> acc + i | _ -> acc)
                          0 cs
                    | _ -> -1
                  in
                  check Alcotest.bool "histogram counts sum to n" true
                    (field "count" h = J.Int counts)
              | _ -> Alcotest.fail "idle_gaps histogram missing")
            parsed_reports
      | _ -> Alcotest.fail "run lacks an obs block")
    runs in_memory;
  (* Without obs the field is absent, keeping old consumers untouched. *)
  let plain =
    Experiments.build_matrix ~apps:[ mini_app () ] ~procs:1 ~versions:[ Version.Base ] ()
  in
  match reparse (J.to_string (J.of_matrix plain)) with
  | J.List [ app ] -> (
      match field "runs" app with
      | J.List [ J.Obj fields ] ->
          check Alcotest.bool "no obs field by default" true
            (List.assoc_opt "obs" fields = None)
      | _ -> Alcotest.fail "expected one run")
  | _ -> Alcotest.fail "expected one app"

(* The report [Runner.run ~obs:true] attaches folds every event of the
   run, however long: each disk's totals equal the engine's own stats
   exactly.  A full-size application under a fault rate that multiplies
   the events per request. *)
let test_obs_report_sees_every_event () =
  let ctx = Runner.context (Option.get (Dp_workloads.Workloads.by_name "FFT")) in
  let knobs = { Knobs.none with faults = Some (Fault_model.make ~seed:3 ~rate:0.3 ()) } in
  List.iter
    (fun v ->
      let r = Runner.run ctx ~knobs ~obs:true ~procs:1 v in
      let reports = Option.get r.Runner.obs in
      let stats = r.Runner.result.Dp_disksim.Engine.per_disk in
      check Alcotest.int (Version.name v ^ ": one report per disk") (Array.length stats)
        (Array.length reports);
      Array.iter2
        (fun (s : Dp_disksim.Engine.disk_stats) (o : Dp_obs.Report.disk_report) ->
          let label what = Printf.sprintf "%s disk %d %s" (Version.name v) s.disk what in
          check Alcotest.int (label "requests") s.requests o.requests;
          List.iter
            (fun (what, engine, report) ->
              check (Alcotest.float 0.0) (label what) engine report)
            [
              ("energy", s.energy_j, o.energy_j);
              ("busy", s.busy_ms, o.busy_ms);
              ("idle", s.idle_ms, o.idle_ms);
              ("standby", s.standby_ms, o.standby_ms);
              ("transition", s.transition_ms, o.transition_ms);
            ])
        stats reports)
    [ Version.Tpm; Version.Drpm ]

(* A clean, unobserved Base row reads the oracle's No-PM reference
   instead of replaying the trace again, so it must be that run exactly.
   Knobs or an obs sink give the row an engine run of its own. *)
let test_base_row_is_no_pm_run () =
  let module Pipeline = Dp_pipeline.Pipeline in
  let module Engine = Dp_disksim.Engine in
  let ctx = Runner.context (mini_app ()) in
  let trace = Pipeline.trace ctx ~procs:4 Pipeline.Original in
  let bytes (r : Engine.result) = Marshal.to_string r [ Marshal.No_sharing ] in
  let direct ?knobs () =
    bytes (Engine.simulate ?knobs ~disks:(Pipeline.disks ctx) Dp_disksim.Policy.No_pm trace)
  in
  let row ?knobs ?obs () = Runner.run ctx ?knobs ?obs ~procs:4 Version.Base in
  check Alcotest.bool "clean Base row = direct No-PM run" true
    (bytes (row ()).Runner.result = direct ());
  let knobs = { Knobs.none with faults = Some (Fault_model.make ~seed:3 ~rate:0.3 ()) } in
  let faulted = bytes (row ~knobs ()).Runner.result in
  check Alcotest.bool "faulted Base row = faulted direct run" true (faulted = direct ~knobs ());
  check Alcotest.bool "faulted Base row differs from the clean one" true (faulted <> direct ());
  check Alcotest.bool "observed Base row carries an obs block" true
    ((row ~obs:true ()).Runner.obs <> None)

(* The full 4-processor matrix simulates six rows and replays the trace
   of the unmodified code once, for the Base row and both oracle rows. *)
let test_matrix_engine_runs () =
  let module Prof = Dp_obs.Prof in
  let app = Dp_pipeline.Pipeline.(app (load Test_pipeline.transpose)) in
  Prof.reset ();
  Prof.enable ();
  Fun.protect ~finally:Prof.disable @@ fun () ->
  ignore
    (Experiments.build_matrix ~apps:[ app ] ~jobs:1 ~procs:4
       ~versions:(Version.multi_cpu @ Version.oracle) ());
  let calls name =
    List.fold_left
      (fun acc (e : Prof.entry) -> if e.Prof.p_name = name then acc + e.Prof.calls else acc)
      0 (Prof.entries ())
  in
  check Alcotest.int "engine runs for 9 rows" 7 (calls "disksim.simulate");
  check Alcotest.int "one reference" 1 (calls "pipeline.reference")

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "version names" `Quick test_version_names;
        Alcotest.test_case "single-CPU matrix" `Quick test_single_cpu_matrix;
        Alcotest.test_case "multi-CPU matrix" `Quick test_multi_cpu_matrix;
        Alcotest.test_case "renderers" `Quick test_matrix_and_renderers;
        Alcotest.test_case "oracle rows" `Quick test_oracle_rows;
        Alcotest.test_case "tabulate" `Quick test_tabulate;
        Alcotest.test_case "json output" `Quick test_json_out;
        Alcotest.test_case "json escaping round-trip" `Quick test_json_escaping_roundtrip;
        Alcotest.test_case "json obs round-trip" `Quick test_json_obs_roundtrip;
        Alcotest.test_case "rate-0 matrix unchanged" `Quick test_rate_zero_matrix_unchanged;
        Alcotest.test_case "reliability aggregate" `Quick test_reliability_aggregate;
        Alcotest.test_case "fault sweep deterministic" `Quick test_fault_sweep_deterministic;
        Alcotest.test_case "fault renderers" `Quick test_fault_renderers;
        Alcotest.test_case "headline orderings" `Slow test_headline_orderings;
        Alcotest.test_case "obs report sees every event" `Quick
          test_obs_report_sees_every_event;
        Alcotest.test_case "Base row = direct No-PM run" `Quick test_base_row_is_no_pm_run;
        Alcotest.test_case "matrix engine runs" `Quick test_matrix_engine_runs;
      ] );
  ]
