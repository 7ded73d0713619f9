(* The chaos harness: scenario generation determinism, spec
   round-trips, the differential oracle staying green on the real
   engine, the sabotage hook firing, the shrinker minimizing a failing
   scenario, and reproducer directories replaying. *)

module Scenario = Dp_chaos.Scenario
module Check = Dp_chaos.Check
module Shrink = Dp_chaos.Shrink
module Repro = Dp_chaos.Repro
module Chaos = Dp_chaos.Chaos
module Fsx = Dp_util.Fsx

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dpower-chaos-%d-%d" (Unix.getpid ()) !dir_counter)

let in_fresh_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> Fsx.remove_tree dir) (fun () -> f dir)

(* Equality that covers everything a scenario carries: the knob spec
   plus the emitted program with its striping clauses. *)
let render (s : Scenario.t) =
  let stripes =
    List.map (fun (n, st) -> (n, Dp_lang.Emit.stripe_spec st)) s.Scenario.stripes
  in
  Scenario.to_spec s ^ "\n" ^ Dp_lang.Emit.to_string ~stripes s.Scenario.program

let test_generate_deterministic () =
  List.iter
    (fun token ->
      let a = Scenario.generate token and b = Scenario.generate token in
      check Alcotest.string
        (Printf.sprintf "token %Lx regenerates identically" token)
        (render a) (render b))
    [ 0L; 1L; 42L; 0xdeadbeefL; Int64.min_int; -1L ]

let test_generate_distinct () =
  (* Not a collision guarantee — just that the token actually drives
     the draw. *)
  let renders =
    List.map (fun t -> render (Scenario.generate (Int64.of_int t))) [ 1; 2; 3; 4; 5 ]
  in
  check Alcotest.int "5 tokens give 5 scenarios" 5
    (List.length (List.sort_uniq compare renders))

let test_spec_roundtrip () =
  List.iter
    (fun token ->
      let s = Scenario.generate token in
      match
        Scenario.of_spec ~program:s.Scenario.program ~stripes:s.Scenario.stripes
          (Scenario.to_spec s)
      with
      | Error msg -> Alcotest.failf "spec of token %Lx rejected: %s" token msg
      | Ok s' ->
          check Alcotest.string
            (Printf.sprintf "token %Lx spec round-trips" token)
            (render s) (render s'))
    [ 3L; 99L; 7777L ]

let test_spec_errors_echo_value () =
  let s = Scenario.generate 11L in
  let reparse spec =
    match Scenario.of_spec ~program:s.Scenario.program ~stripes:s.Scenario.stripes spec with
    | Ok _ -> Alcotest.fail "bad spec accepted"
    | Error msg -> msg
  in
  let subst key value =
    String.concat "\n"
      (List.map
         (fun line ->
           match String.index_opt line ' ' with
           | Some i when String.sub line 0 i = key -> key ^ " " ^ value
           | _ -> line)
         (String.split_on_char '\n' (Scenario.to_spec s)))
  in
  List.iter
    (fun (key, value) ->
      let msg = reparse (subst key value) in
      check Alcotest.bool
        (Printf.sprintf "bad %s echoes %S (got %S)" key value msg)
        true
        (contains ~needle:value msg))
    [
      ("mode", "bogus-mode");
      ("cluster", "bogus-cluster");
      ("policy", "bogus-policy");
      ("procs", "zero");
      ("scrub-ms", "-3");
      ("spare", "0");
      ("deadline-ms", "nope");
      ("token", "xyz");
      (* the fault-spec parser echoes the offending field *)
      ("faults", "nope");
    ];
  let msg = reparse "not a spec at all" in
  check Alcotest.bool
    (Printf.sprintf "missing fields diagnosed (got %S)" msg)
    true
    (contains ~needle:"missing" msg || contains ~needle:"malformed" msg)

let test_oracle_green () =
  (* A handful of tokens spanning the knob space: the paired
     configurations must agree and every invariant must hold on the
     real engine.  0x6358cb18bbd76731 is scenario 207 of seed 2, a
     reactive-TPM run whose arrivals land inside spin-downs: it pins
     found-bug ledger #4 (conservation:base).  0x7ddb65a2ce7e7a33 is
     scenario 449 of seed 12, whose failed-over deadline misses were
     stamped past a later miss on the same disk: it pins found-bug
     ledger #5 (monotone-time on the deadline events). *)
  List.iter
    (fun token ->
      let s = Scenario.generate token in
      let o = Check.run s in
      check Alcotest.int
        (Printf.sprintf "token %Lx clean (%s): %s" token (Scenario.describe s)
           (String.concat "; "
              (List.map (fun (v : Check.violation) -> v.Check.check) o.Check.violations)))
        0
        (List.length o.Check.violations);
      check Alcotest.bool "multiple engine runs" true (o.Check.runs >= 8);
      check Alcotest.bool "non-empty trace" true (o.Check.requests > 0))
    [ 1L; 5L; 12L; 1234L; 0x6358cb18bbd76731L; 0x7ddb65a2ce7e7a33L ]

(* The pair comparator sees every bit: a one-ulp energy drift and a
   sign-flipped zero both diverge, while an equal rerun does not. *)
let test_result_divergence () =
  let module Engine = Dp_disksim.Engine in
  let s = Scenario.generate 5L in
  let ctx = Scenario.context s in
  let run () =
    Engine.simulate ~disks:(Dp_pipeline.Pipeline.disks ctx) (Scenario.policy s)
      (Check.run_trace s)
  in
  let r = run () in
  let with_disk0 f =
    { r with Engine.per_disk = Array.mapi (fun i d -> if i = 0 then f d else d) r.Engine.per_disk }
  in
  let diverges name b expected =
    check Alcotest.bool name expected (Option.is_some (Check.result_divergence r b))
  in
  diverges "an equal rerun agrees" (run ()) false;
  diverges "one ulp of disk-0 energy diverges"
    (with_disk0 (fun d -> { d with Engine.energy_j = Float.succ d.Engine.energy_j }))
    true;
  check (Alcotest.float 0.0) "disk 0 has no degraded time" 0.0
    r.Engine.per_disk.(0).Engine.degraded_ms;
  diverges "-0.0 against 0.0 diverges"
    (with_disk0 (fun d -> { d with Engine.degraded_ms = -0.0 }))
    true

let test_sabotage_fires () =
  let s = Scenario.generate 21L in
  let o = Check.run ~sabotage:Check.Energy_skew s in
  check Alcotest.bool "sabotaged run has violations" true (o.Check.violations <> []);
  check Alcotest.bool "the energy-conservation check fired" true
    (List.exists
       (fun (v : Check.violation) -> contains ~needle:"energy-conservation" v.Check.check)
       o.Check.violations)

(* The compile oracle on a dependence chain (instance k writes the
   element instance k+1 reads): the pipeline's restructured stream is
   clean, and hand-broken copies of it are caught under their names. *)
let test_compile_oracle () =
  let module Ir = Dp_ir.Ir in
  let module A = Dp_affine.Affine in
  let module Pipeline = Dp_pipeline.Pipeline in
  let i = A.var "i" in
  let prog =
    Ir.program
      [ Ir.array_decl ~elem_size:64 "u" [ 8 ] ]
      [
        Ir.nest 0
          [ Ir.loop "i" (A.const 1) (A.const 7) ]
          [ Ir.stmt 0 [ Ir.read "u" [ A.sub i (A.const 1) ]; Ir.write "u" [ i ] ] ];
      ]
  in
  let ctx = Pipeline.create prog in
  let g = Pipeline.graph ctx in
  let segs, _ = Pipeline.streams ctx ~procs:1 Pipeline.Reuse_single in
  let names segs =
    List.map (fun (v : Check.violation) -> v.Check.check) (Check.compile_violations g segs)
  in
  check Alcotest.(list string) "restructured stream is clean" [] (names segs);
  let order = List.hd segs.(0) in
  check Alcotest.(array int) "a chain has one legal order" (Array.init 7 Fun.id) order;
  let broken f =
    let o = Array.copy order in
    f o;
    [| [ o ] |]
  in
  check Alcotest.(list string) "a swapped dependence is illegal" [ "compile:legality" ]
    (names (broken (fun o -> o.(2) <- 3; o.(3) <- 2)));
  check Alcotest.(list string) "a duplicated instance is not a permutation"
    [ "compile:permutation" ]
    (names (broken (fun o -> o.(6) <- 0)));
  check Alcotest.(list string) "a split into segments keeps per-segment legality" []
    (names [| [ Array.sub order 0 3; Array.sub order 3 4 ] |]);
  check Alcotest.(list string) "a dropped instance is not covered" [ "compile:permutation" ]
    (names [| [ Array.sub order 0 6 ] |])

let test_shrink_minimizes () =
  let s = Scenario.generate 21L in
  let small, stats = Shrink.minimize ~sabotage:Check.Energy_skew s in
  check Alcotest.bool "shrunk scenario still fails" true
    ((Check.run ~sabotage:Check.Energy_skew small).Check.violations <> []);
  check Alcotest.bool
    (Printf.sprintf "nests minimized (got %d)" (Scenario.nest_count small))
    true
    (Scenario.nest_count small <= 2);
  check Alcotest.bool
    (Printf.sprintf "fault classes minimized (got %d)" (Scenario.fault_class_count small))
    true
    (Scenario.fault_class_count small <= 1);
  check Alcotest.bool "shrunk scenarios drop their token" true (small.Scenario.token = None);
  check Alcotest.bool "some candidates were kept" true (stats.Shrink.kept > 0);
  check Alcotest.bool "attempts bound kept" true (stats.Shrink.attempts >= stats.Shrink.kept)

let test_shrink_green_is_noop () =
  let s = Scenario.generate 5L in
  let small, stats = Shrink.minimize s in
  check Alcotest.string "green scenario survives untouched" (render s) (render small);
  check Alcotest.int "nothing kept" 0 stats.Shrink.kept

let test_repro_roundtrip () =
  in_fresh_dir @@ fun dir ->
  let s = Scenario.generate 33L in
  let o = Check.run ~sabotage:Check.Energy_skew s in
  Repro.write ~sabotage:Check.Energy_skew ~dir s o;
  List.iter
    (fun file ->
      check Alcotest.bool (file ^ " written") true
        (Sys.file_exists (Filename.concat dir file)))
    [ Repro.program_file; Repro.spec_file; Repro.trace_file; Repro.diff_file; Repro.replay_file ];
  (match Repro.load ~dir with
  | Error msg -> Alcotest.failf "reproducer rejected: %s" msg
  | Ok s' -> check Alcotest.string "reproducer scenario round-trips" (render s) (render s'));
  match Chaos.replay ~sabotage:Check.Energy_skew ~dir () with
  | Error msg -> Alcotest.failf "replay failed: %s" msg
  | Ok (_, o') ->
      check Alcotest.bool "replay reproduces the violation" true (o'.Check.violations <> [])

let test_repro_replays_trace () =
  (* A reproducer replays re-resolved emitted source, not the generated
     IR.  The two differ in structure (the emitter writes one access per
     statement, where a generated statement can carry several), but the
     reproducer must replay the scenario's trace.  Each reproducer is
     written, loaded back as [Chaos.replay] loads it, and its trace
     compared with the scenario's. *)
  in_fresh_dir @@ fun dir ->
  let root = Dp_util.Splitmix.create 7 in
  let green = { Check.violations = []; runs = 0; requests = 0 } in
  for _ = 1 to 300 do
    let s = Scenario.generate (Dp_util.Splitmix.next_int64 root) in
    Repro.write ~dir s green;
    match Repro.load ~dir with
    | Error msg ->
        Alcotest.failf "token %s: reproducer rejected: %s" (Scenario.token_string s) msg
    | Ok s' ->
        if Check.run_trace s' <> Check.run_trace s then
          Alcotest.failf "token %s: the reproducer replays another trace"
            (Scenario.token_string s)
  done

let test_soak_deterministic_and_green () =
  in_fresh_dir @@ fun dir ->
  let cfg = { Chaos.default_config with Chaos.seed = 42; budget = Some 4; out_dir = dir } in
  let a = Chaos.soak cfg and b = Chaos.soak cfg in
  check Alcotest.int "budget honored" 4 a.Chaos.scenarios;
  check Alcotest.int "no findings on the real engine" 0 (List.length a.Chaos.findings);
  check Alcotest.int "runs deterministic" a.Chaos.runs b.Chaos.runs;
  check Alcotest.bool "no reproducer directories" true (not (Sys.file_exists dir))

let test_soak_sabotage_writes_repros () =
  in_fresh_dir @@ fun dir ->
  let cfg =
    {
      Chaos.default_config with
      Chaos.seed = 7;
      budget = Some 1;
      shrink = true;
      sabotage = Some Check.Energy_skew;
      out_dir = dir;
    }
  in
  let summary = Chaos.soak cfg in
  check Alcotest.int "every scenario fails under sabotage" 1
    (List.length summary.Chaos.findings);
  List.iter
    (fun (f : Chaos.finding) ->
      check Alcotest.bool "reproducer on disk" true
        (Sys.file_exists (Filename.concat f.Chaos.repro_dir Repro.diff_file));
      match f.Chaos.shrunk with
      | None -> Alcotest.fail "shrinking was requested"
      | Some small ->
          check Alcotest.bool "shrunk to <= 2 nests" true (Scenario.nest_count small <= 2))
    summary.Chaos.findings

let suites =
  [
    ( "chaos",
      [
        Alcotest.test_case "generate deterministic" `Quick test_generate_deterministic;
        Alcotest.test_case "generate distinct" `Quick test_generate_distinct;
        Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
        Alcotest.test_case "spec errors echo value" `Quick test_spec_errors_echo_value;
        Alcotest.test_case "oracle green on real engine" `Slow test_oracle_green;
        Alcotest.test_case "pair comparator is bit-exact" `Quick test_result_divergence;
        Alcotest.test_case "sabotage fires" `Quick test_sabotage_fires;
        Alcotest.test_case "compile oracle" `Quick test_compile_oracle;
        Alcotest.test_case "shrink minimizes" `Slow test_shrink_minimizes;
        Alcotest.test_case "shrink is a no-op when green" `Slow test_shrink_green_is_noop;
        Alcotest.test_case "reproducer round-trip" `Quick test_repro_roundtrip;
        Alcotest.test_case "reproducer replays the trace" `Quick test_repro_replays_trace;
        Alcotest.test_case "soak deterministic and green" `Slow
          test_soak_deterministic_and_green;
        Alcotest.test_case "sabotaged soak writes reproducers" `Slow
          test_soak_sabotage_writes_repros;
      ] );
  ]
