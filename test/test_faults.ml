(* Tests for the fault model and the deterministic injector. *)

module Fault_model = Dp_faults.Fault_model
module Injector = Dp_faults.Injector

let check = Alcotest.check

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Fault_model.of_spec spec with
      | Ok f -> check Alcotest.string spec spec (Fault_model.to_spec f)
      | Error e -> Alcotest.failf "spec %s rejected: %s" spec e)
    [ "42:0.01:all"; "7:0.05:sm"; "0:0:all"; "123:1:lr" ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_spec_errors () =
  let rejects spec part =
    match Fault_model.of_spec spec with
    | Ok _ -> Alcotest.failf "spec %s must be rejected" spec
    | Error msg ->
        check Alcotest.bool
          (Printf.sprintf "%s error mentions %s (got %s)" spec part msg)
          true (contains ~needle:part msg)
  in
  rejects "x:0.1:all" "seed";
  rejects "-1:0.1:all" "seed";
  rejects "1:nope:all" "rate";
  rejects "1:2.5:all" "rate";
  rejects "1:0.1:qz" "class";
  rejects "1:0.1:ssm" "duplicate";
  rejects "1:0.1:dd" "duplicate";
  rejects "justonefield" "spec"

let test_classes () =
  (match Fault_model.of_spec "1:0.5:smd" with
  | Ok f ->
      check Alcotest.int "three classes" 3 (List.length f.Fault_model.classes);
      check Alcotest.bool "decay enabled" true
        (List.mem Fault_model.Media_decay f.Fault_model.classes)
  | Error e -> Alcotest.fail e);
  (match Fault_model.of_spec "7:0.1:d" with
  | Ok f -> check Alcotest.string "decay roundtrip" "7:0.1:d" (Fault_model.to_spec f)
  | Error e -> Alcotest.fail e);
  match Fault_model.of_spec "1:0.5:all" with
  | Ok f ->
      check Alcotest.bool "all classes (including decay)" true
        (f.Fault_model.classes = Fault_model.all_classes
        && List.length f.Fault_model.classes = 5)
  | Error e -> Alcotest.fail e

let test_rate_rejected () =
  (* One rule: [make] raises what [of_spec] returns, NaN included. *)
  List.iter
    (fun (rate, text) ->
      let msg =
        match Fault_model.of_spec ("1:" ^ text ^ ":all") with
        | Ok _ -> Alcotest.failf "rate %s accepted by of_spec" text
        | Error msg -> msg
      in
      check Alcotest.bool (Printf.sprintf "of_spec echoes %s (got %S)" text msg) true
        (contains ~needle:text msg);
      check Alcotest.bool
        (Printf.sprintf "make rejects %s with the same message" text)
        true
        (try
           ignore (Fault_model.make ~seed:1 ~rate ());
           false
         with Invalid_argument m -> contains ~needle:msg m))
    [ (7.0, "7"); (-3.0, "-3"); (Float.nan, "nan") ];
  check (Alcotest.float 0.0) "1 is a rate" 1.0 (Fault_model.make ~seed:1 ~rate:1.0 ()).Fault_model.rate

let drain inj ~disks ~n =
  List.init (disks * n) (fun i ->
      let disk = i mod disks in
      ( Injector.spin_up_failures inj ~disk ~max_failures:4,
        Injector.media_retries inj ~disk ~max_retries:4,
        Injector.latency_spike_ms inj ~disk ))

let test_injector_deterministic () =
  let cfg = Fault_model.make ~seed:99 ~rate:0.3 () in
  let a = drain (Injector.make cfg ~disks:3) ~disks:3 ~n:200 in
  let b = drain (Injector.make cfg ~disks:3) ~disks:3 ~n:200 in
  check Alcotest.bool "same seed, same faults" true (a = b);
  let c = drain (Injector.make { cfg with Fault_model.seed = 100 } ~disks:3) ~disks:3 ~n:200 in
  check Alcotest.bool "different seed, different faults" true (a <> c)

let test_injector_rate_zero () =
  let cfg = Fault_model.make ~seed:5 ~rate:0.0 () in
  let inj = Injector.make cfg ~disks:2 in
  for disk = 0 to 1 do
    for _ = 1 to 100 do
      check Alcotest.int "no spin-up failures" 0
        (Injector.spin_up_failures inj ~disk ~max_failures:4);
      check Alcotest.int "no media retries" 0 (Injector.media_retries inj ~disk ~max_retries:4);
      check (Alcotest.float 0.0) "no spikes" 0.0 (Injector.latency_spike_ms inj ~disk);
      check Alcotest.bool "no stuck windows" false (Injector.rpm_locked inj ~disk ~now_ms:0.0)
    done
  done

let test_injector_rate_one_bounded () =
  (* Certain faults still respect the caller's bounds. *)
  let cfg = Fault_model.make ~seed:5 ~rate:1.0 () in
  let inj = Injector.make cfg ~disks:1 in
  for _ = 1 to 50 do
    let f = Injector.spin_up_failures inj ~disk:0 ~max_failures:4 in
    check Alcotest.bool "failures within bound" true (f >= 1 && f <= 4);
    let r = Injector.media_retries inj ~disk:0 ~max_retries:3 in
    check Alcotest.bool "retries within bound" true (r >= 1 && r <= 3)
  done;
  check Alcotest.int "zero bound honoured" 0
    (Injector.spin_up_failures inj ~disk:0 ~max_failures:0)

let test_injector_class_gating () =
  (* Only the enabled classes fire, even at rate 1. *)
  let cfg = Fault_model.make ~classes:[ Fault_model.Media_error ] ~seed:5 ~rate:1.0 () in
  let inj = Injector.make cfg ~disks:1 in
  check Alcotest.int "spin-up disabled" 0 (Injector.spin_up_failures inj ~disk:0 ~max_failures:4);
  check Alcotest.bool "media enabled" true (Injector.media_retries inj ~disk:0 ~max_retries:4 > 0);
  check (Alcotest.float 0.0) "spike disabled" 0.0 (Injector.latency_spike_ms inj ~disk:0);
  check Alcotest.bool "stuck disabled" false (Injector.rpm_locked inj ~disk:0 ~now_ms:0.0)

let test_injector_streams_independent () =
  (* Consuming one class's stream must not shift another's: media draws
     between two spin-up draws leave the spin-up sequence unchanged. *)
  let cfg = Fault_model.make ~seed:7 ~rate:0.4 () in
  let pure = Injector.make cfg ~disks:2 in
  let seq_a = List.init 50 (fun _ -> Injector.spin_up_failures pure ~disk:0 ~max_failures:4) in
  let noisy = Injector.make cfg ~disks:2 in
  let seq_b =
    List.init 50 (fun _ ->
        ignore (Injector.media_retries noisy ~disk:0 ~max_retries:4);
        ignore (Injector.latency_spike_ms noisy ~disk:1);
        Injector.spin_up_failures noisy ~disk:0 ~max_failures:4)
  in
  check Alcotest.bool "per-class streams independent" true (seq_a = seq_b)

let test_decay_stream () =
  (* Decay draws are deterministic, gated on the class, silent at rate
     0, and independent of the other streams. *)
  let cfg = Fault_model.make ~seed:21 ~rate:0.4 () in
  let drain inj =
    List.init 200 (fun i -> Injector.decay_defect inj ~disk:(i mod 2) ~surface:4096)
  in
  let a = drain (Injector.make cfg ~disks:2) in
  let b = drain (Injector.make cfg ~disks:2) in
  check Alcotest.bool "same seed, same defects" true (a = b);
  check Alcotest.bool "some defects at rate 0.4" true (List.exists Option.is_some a);
  check Alcotest.bool "defects within the surface" true
    (List.for_all (function Some b -> b >= 0 && b < 4096 | None -> true) a);
  (* Interleaving other classes' draws leaves the decay schedule alone. *)
  let noisy = Injector.make cfg ~disks:2 in
  let c =
    List.init 200 (fun i ->
        ignore (Injector.media_retries noisy ~disk:0 ~max_retries:4);
        ignore (Injector.latency_spike_ms noisy ~disk:1);
        Injector.decay_defect noisy ~disk:(i mod 2) ~surface:4096)
  in
  check Alcotest.bool "decay stream independent" true (a = c);
  (* Rate 0: never a defect, and no draw consumed. *)
  let z = Injector.make (Fault_model.make ~seed:21 ~rate:0.0 ()) ~disks:2 in
  check Alcotest.bool "rate 0 silent" true
    (List.for_all Option.is_none
       (List.init 100 (fun i -> Injector.decay_defect z ~disk:(i mod 2) ~surface:64)));
  (* Class gating: media-only config never decays even at rate 1. *)
  let m =
    Injector.make
      (Fault_model.make ~classes:[ Fault_model.Media_error ] ~seed:21 ~rate:1.0 ())
      ~disks:1
  in
  check Alcotest.bool "decay disabled" true
    (Option.is_none (Injector.decay_defect m ~disk:0 ~surface:64));
  check Alcotest.bool "surface must be positive" true
    (try
       ignore (Injector.decay_defect (Injector.make cfg ~disks:1) ~disk:0 ~surface:0);
       false
     with Invalid_argument _ -> true)

let test_stuck_window () =
  let cfg = Fault_model.make ~seed:3 ~rate:1.0 ~stuck_window_ms:1_000.0 () in
  let inj = Injector.make cfg ~disks:1 in
  (* At rate 1 the first consult opens a window... *)
  check Alcotest.bool "locks" true (Injector.rpm_locked inj ~disk:0 ~now_ms:0.0);
  (* ...the pure read agrees inside it and disagrees after expiry. *)
  check Alcotest.bool "locked inside window" true (Injector.is_locked inj ~disk:0 ~now_ms:500.0);
  check Alcotest.bool "expired after window" false
    (Injector.is_locked inj ~disk:0 ~now_ms:1_500.0)

let suites =
  [
    ( "faults.model",
      [
        Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
        Alcotest.test_case "spec errors" `Quick test_spec_errors;
        Alcotest.test_case "classes" `Quick test_classes;
        Alcotest.test_case "rate rejected" `Quick test_rate_rejected;
      ] );
    ( "faults.injector",
      [
        Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
        Alcotest.test_case "rate zero" `Quick test_injector_rate_zero;
        Alcotest.test_case "rate one bounded" `Quick test_injector_rate_one_bounded;
        Alcotest.test_case "class gating" `Quick test_injector_class_gating;
        Alcotest.test_case "streams independent" `Quick test_injector_streams_independent;
        Alcotest.test_case "decay stream" `Quick test_decay_stream;
        Alcotest.test_case "stuck window" `Quick test_stuck_window;
      ] );
  ]
