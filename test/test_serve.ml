(* Tests for the served-array subsystem: the multiplexer's ordering
   guarantees (QCheck), per-tenant energy attribution, the online
   policy's payoff, and jobs-independence of the report. *)

module Splitmix = Dp_util.Splitmix
module Request = Dp_trace.Request
module Oltp = Dp_serve.Oltp
module Tenant = Dp_serve.Tenant
module Mux = Dp_serve.Mux
module Account = Dp_serve.Account
module Serve = Dp_serve.Serve
module Json_out = Dp_harness.Json_out

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A cheap all-OLTP population built directly (no pipeline): the mux
   properties do not depend on what generated the streams, only on the
   normalized shape (strictly increasing arrivals, proc = 0). *)
let oltp_population ~seed ~tenants ~disks =
  let rng = Splitmix.create seed in
  List.init tenants (fun i ->
      let child = Splitmix.split rng in
      let params = Oltp.draw child in
      let stream = Oltp.generate child ~disks params in
      { Tenant.index = i; kind = Tenant.Oltp params; stream })

let mux_gen =
  QCheck2.Gen.(
    triple (int_range 1 8) (int_range 0 1_000_000)
      (oneof [ pure 0.0; float_range 1.0 60_000.0 ]))

let prop_mux_conserves_and_orders (tenants, seed, jitter_ms) =
  let pop = oltp_population ~seed ~tenants ~disks:4 in
  let merged = Mux.merge ~rng:(Splitmix.create (seed + 1)) ~jitter_ms pop in
  (* Total count conserved. *)
  let total = List.fold_left (fun n t -> n + List.length t.Tenant.stream) 0 pop in
  if List.length merged <> total then QCheck2.Test.fail_report "request count changed";
  (* Globally sorted by arrival. *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Request.arrival_ms <= b.Request.arrival_ms && sorted rest
    | _ -> true
  in
  if not (sorted merged) then QCheck2.Test.fail_report "merge not arrival-sorted";
  (* Per-tenant order preserved: the proc-i subsequence carries tenant
     i's addresses in the original order, with arrivals shifted by one
     constant offset. *)
  List.iter
    (fun (t : Tenant.t) ->
      let mine =
        List.filter (fun r -> r.Request.proc = t.Tenant.index) merged
      in
      let key (r : Request.t) = (r.Request.disk, r.Request.lba, r.Request.size) in
      if List.map key mine <> List.map key t.Tenant.stream then
        QCheck2.Test.fail_reportf "tenant %d reordered" t.Tenant.index;
      match (mine, t.Tenant.stream) with
      | first :: _, orig :: _ ->
          let offset = first.Request.arrival_ms -. orig.Request.arrival_ms in
          if offset < 0.0 || offset > jitter_ms then
            QCheck2.Test.fail_reportf "tenant %d offset %g outside [0, %g)"
              t.Tenant.index offset jitter_ms;
          List.iter2
            (fun (m : Request.t) (o : Request.t) ->
              if Float.abs (m.Request.arrival_ms -. (o.Request.arrival_ms +. offset)) > 1e-9
              then QCheck2.Test.fail_reportf "tenant %d spacing changed" t.Tenant.index)
            mine t.Tenant.stream
      | [], [] -> ()
      | _ -> QCheck2.Test.fail_report "per-tenant subsequence length changed")
    pop;
  true

let prop_mux_deterministic (tenants, seed, jitter_ms) =
  let once () =
    Mux.merge
      ~rng:(Splitmix.create (seed + 1))
      ~jitter_ms
      (oltp_population ~seed ~tenants ~disks:4)
  in
  once () = once ()

(* --- the report: jobs-independence, determinism, attribution --- *)

let report_string r = Json_out.to_string (Json_out.of_serve r)

let run_report ?(tenants = 5) ?(selection = Serve.All) ~jobs () =
  Serve.run (Serve.config ~disks:4 ~jobs ~selection ~tenants ~seed:42 ())

let test_report_jobs_identical () =
  let a = run_report ~jobs:1 () and b = run_report ~jobs:4 () in
  check Alcotest.string "jobs 1 = jobs 4" (report_string a) (report_string b)

let test_report_deterministic () =
  let a = run_report ~jobs:2 () and b = run_report ~jobs:2 () in
  check Alcotest.string "same seed, same report" (report_string a) (report_string b)

let test_report_rows () =
  let r = run_report ~jobs:1 () in
  check
    Alcotest.(list string)
    "row labels"
    [ "base"; "offline-tpm"; "offline-drpm"; "online"; "oracle" ]
    (List.map (fun (row : Serve.row) -> row.Serve.label) r.Serve.rows);
  check Alcotest.int "kinds cover every tenant" 5 (Array.length r.Serve.kinds);
  check Alcotest.string "every fourth tenant replays an app" "app:AST" r.Serve.kinds.(3)

let test_attribution_sums () =
  let r = run_report ~jobs:1 () in
  List.iter
    (fun (row : Serve.row) ->
      match row.Serve.summary with
      | None -> check Alcotest.string "only the bound lacks accounting" "oracle" row.Serve.label
      | Some s ->
          (* The summary total is the engine's total, rebuilt from the
             event stream span by span. *)
          check (Alcotest.float 1e-6)
            (row.Serve.label ^ ": accounted energy = engine energy")
            row.Serve.energy_j s.Account.energy_j;
          (* Every joule lands in a tenant pot or the unattributed pot. *)
          check (Alcotest.float 1e-6)
            (row.Serve.label ^ ": attribution sums to the total")
            s.Account.energy_j
            (s.Account.attributed_j +. s.Account.unattributed_j);
          let tenant_sum =
            Array.fold_left
              (fun acc (t : Account.tenant_stats) -> acc +. t.Account.energy_j)
              0.0 s.Account.tenants
          in
          check (Alcotest.float 1e-6)
            (row.Serve.label ^ ": tenant shares sum to attributed")
            s.Account.attributed_j tenant_sum;
          check Alcotest.bool
            (row.Serve.label ^ ": fairness in (0, 1]")
            true
            (s.Account.fairness > 0.0 && s.Account.fairness <= 1.0 +. 1e-9))
    r.Serve.rows

let test_online_saves_energy () =
  let r = run_report ~tenants:8 ~selection:Serve.Online ~jobs:1 () in
  let energy label =
    let row = List.find (fun (row : Serve.row) -> row.Serve.label = label) r.Serve.rows in
    row.Serve.energy_j
  in
  check Alcotest.bool "online adaptation beats no power management" true
    (energy "online" < energy "base")

(* --- the persistent-failure domain through the serve report --- *)

module Fault_model = Dp_faults.Fault_model
module Knobs = Dp_disksim.Knobs

let decay_knobs ~seed ~rate =
  {
    Knobs.none with
    faults = Some (Fault_model.make ~classes:[ Fault_model.Media_decay ] ~seed ~rate ());
  }

(* No explicit deadline: decay at a positive rate arms the 500 ms SLO
   in [Serve.config]. *)
let run_decay ?(rate = 0.3) ~jobs () =
  Serve.run
    (Serve.config ~disks:4 ~jobs ~selection:Serve.Online ~tenants:4 ~seed:42
       ~knobs:(decay_knobs ~seed:11 ~rate) ())

let test_serve_decay_reports_slo () =
  let r = run_decay ~jobs:1 () in
  List.iter
    (fun (row : Serve.row) ->
      match row.Serve.summary with
      | None -> ()
      | Some s -> (
          match s.Account.slo with
          | None -> Alcotest.failf "%s: deadline armed but no SLO summary" row.Serve.label
          | Some slo ->
              check (Alcotest.float 1e-9)
                (row.Serve.label ^ ": deadline echoed")
                500.0 slo.Account.deadline_ms;
              check Alcotest.bool
                (row.Serve.label ^ ": availability in [0, 1]")
                true
                (slo.Account.availability >= 0.0 && slo.Account.availability <= 1.0);
              check Alcotest.bool
                (row.Serve.label ^ ": abandoned never exceeds violations")
                true
                (slo.Account.abandoned <= slo.Account.violations);
              (* Attribution still sums to the engine total under decay. *)
              check (Alcotest.float 1e-6)
                (row.Serve.label ^ ": attribution conserved under decay")
                s.Account.energy_j
                (s.Account.attributed_j +. s.Account.unattributed_j)))
    r.Serve.rows

let test_serve_decay_jobs_identical () =
  let a = run_decay ~jobs:1 () and b = run_decay ~jobs:4 () in
  check Alcotest.string "decay report jobs 1 = jobs 4" (report_string a) (report_string b)

let test_serve_decay_rate_zero_identity () =
  (* Rate-0 decay with scrub off leaves every row's figures exactly
     where the clean run put them. *)
  let clean =
    Serve.run (Serve.config ~disks:4 ~jobs:1 ~selection:Serve.Online ~tenants:4 ~seed:42 ())
  in
  let armed =
    Serve.run
      (Serve.config ~disks:4 ~jobs:1 ~selection:Serve.Online ~tenants:4 ~seed:42
         ~knobs:(decay_knobs ~seed:11 ~rate:0.0) ())
  in
  List.iter2
    (fun (a : Serve.row) (b : Serve.row) ->
      check Alcotest.string "labels align" a.Serve.label b.Serve.label;
      check (Alcotest.float 0.0) (a.Serve.label ^ ": energy identical") a.Serve.energy_j
        b.Serve.energy_j;
      check (Alcotest.float 0.0) (a.Serve.label ^ ": makespan identical") a.Serve.makespan_ms
        b.Serve.makespan_ms)
    clean.Serve.rows armed.Serve.rows

let test_serve_reliability_config_validation () =
  let rejects name f = check Alcotest.bool name true (try ignore (f ()); false with Invalid_argument _ -> true) in
  let knobs k () = Serve.config ~knobs:k ~tenants:1 ~seed:1 () in
  rejects "deadline <= 0" (knobs { Knobs.none with deadline_ms = Some 0.0 });
  rejects "deadline nan" (knobs { Knobs.none with deadline_ms = Some Float.nan });
  rejects "spare < 1" (knobs { Knobs.none with spare = Some 0 });
  rejects "recorder deadline <= 0" (fun () ->
      Account.recorder ~deadline_ms:(-1.0) ~tenants:1 ~disks:1 ())

let test_percentile () =
  let s = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "p0 is the minimum" 1.0 (Account.percentile s 0.0);
  check (Alcotest.float 1e-9) "p50 nearest rank" 2.0 (Account.percentile s 0.5);
  check (Alcotest.float 1e-9) "p100 is the maximum" 4.0 (Account.percentile s 1.0);
  check (Alcotest.float 1e-9) "empty sample" 0.0 (Account.percentile [||] 0.5)

let test_config_validation () =
  let rejects name f = check Alcotest.bool name true (try ignore (f ()); false with Invalid_argument _ -> true) in
  rejects "tenants < 1" (fun () -> Serve.config ~tenants:0 ~seed:1 ());
  rejects "jobs < 1" (fun () -> Serve.config ~jobs:0 ~tenants:1 ~seed:1 ());
  rejects "disks < 1" (fun () -> Serve.config ~disks:0 ~tenants:1 ~seed:1 ());
  rejects "negative jitter" (fun () -> Serve.config ~jitter_ms:(-1.0) ~tenants:1 ~seed:1 ());
  rejects "nan jitter" (fun () -> Serve.config ~jitter_ms:Float.nan ~tenants:1 ~seed:1 ());
  rejects "negative jitter at merge" (fun () ->
      Mux.merge ~rng:(Splitmix.create 1) ~jitter_ms:(-1.0) [])

let suites =
  [
    ( "serve",
      [
        qtest "mux conserves and orders" mux_gen prop_mux_conserves_and_orders;
        qtest ~count:30 "mux deterministic" mux_gen prop_mux_deterministic;
        Alcotest.test_case "percentiles (nearest rank)" `Quick test_percentile;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "report rows" `Quick test_report_rows;
        Alcotest.test_case "report: jobs-independent" `Quick test_report_jobs_identical;
        Alcotest.test_case "report: deterministic" `Quick test_report_deterministic;
        Alcotest.test_case "attribution sums to the total" `Quick test_attribution_sums;
        Alcotest.test_case "online saves energy" `Quick test_online_saves_energy;
      ] );
    ( "serve.reliability",
      [
        Alcotest.test_case "decay reports SLO and availability" `Quick
          test_serve_decay_reports_slo;
        Alcotest.test_case "decay report: jobs-independent" `Quick
          test_serve_decay_jobs_identical;
        Alcotest.test_case "rate-0 decay identical to clean" `Quick
          test_serve_decay_rate_zero_identity;
        Alcotest.test_case "reliability config validation" `Quick
          test_serve_reliability_config_validation;
      ] );
  ]
