(* Tests for the served-array subsystem: the multiplexer's ordering
   guarantees (QCheck), per-tenant energy attribution, the online
   policy's payoff, and jobs-independence of the report. *)

module Splitmix = Dp_util.Splitmix
module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
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
  let total = List.fold_left (fun n t -> n + Trace.length t.Tenant.stream) 0 pop in
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
      let stream = Trace.to_list t.Tenant.stream in
      let key (r : Request.t) = (r.Request.disk, r.Request.lba, r.Request.size) in
      if List.map key mine <> List.map key stream then
        QCheck2.Test.fail_reportf "tenant %d reordered" t.Tenant.index;
      match (mine, stream) with
      | first :: _, orig :: _ ->
          let offset = first.Request.arrival_ms -. orig.Request.arrival_ms in
          if offset < 0.0 || offset > jitter_ms then
            QCheck2.Test.fail_reportf "tenant %d offset %g outside [0, %g)"
              t.Tenant.index offset jitter_ms;
          List.iter2
            (fun (m : Request.t) (o : Request.t) ->
              if Float.abs (m.Request.arrival_ms -. (o.Request.arrival_ms +. offset)) > 1e-9
              then QCheck2.Test.fail_reportf "tenant %d spacing changed" t.Tenant.index)
            mine stream
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

(* --- app windows from the first iterations --- *)

module Pipeline = Dp_pipeline.Pipeline
module Prof = Dp_obs.Prof

let marshal v = Marshal.to_string v [ Marshal.No_sharing ]

(* 24 tenants hold one app tenant per paper workload (indices 3, 7, ...,
   23).  Each window must be, bit for bit, the normalized head of the
   whole 1-processor Original trace: the reference below is that
   whole-trace path. *)
let test_app_windows_match_whole_trace () =
  let whole =
    List.map
      (fun name ->
        (name, Pipeline.trace (Pipeline.load ("app:" ^ name)) ~procs:1 Pipeline.Original))
      [ "AST"; "FFT"; "Cholesky"; "Visuo"; "SCF 3.0"; "RSense 2.0" ]
  in
  List.iter
    (fun disks ->
      let pop = Tenant.population ~rng:(Splitmix.create 42) ~tenants:24 ~disks () in
      let apps =
        List.filter_map
          (fun (t : Tenant.t) ->
            match t.Tenant.kind with
            | Tenant.App name -> Some (name, t.Tenant.stream)
            | Tenant.Oltp _ -> None)
          pop
      in
      check Alcotest.int "one window per workload" 6 (List.length apps);
      List.iter
        (fun (name, stream) ->
          let reference =
            Tenant.normalize ~disks
              (Trace.of_list
                 (List.filteri
                    (fun i _ -> i < Tenant.app_window)
                    (Request.sort_arrival (List.assoc name whole))))
          in
          check Alcotest.int
            (Printf.sprintf "%s at %d disks: window length" name disks)
            Tenant.app_window (Trace.length stream);
          check Alcotest.bool
            (Printf.sprintf "%s at %d disks: window = head of the whole trace" name disks)
            true
            (marshal reference = marshal stream))
        apps)
    [ 8; 3 ]

let test_population_builds_no_stage () =
  Prof.reset ();
  Prof.enable ();
  Fun.protect ~finally:Prof.disable @@ fun () ->
  ignore (Tenant.population ~rng:(Splitmix.create 42) ~tenants:24 ~disks:8 ());
  let names = List.map (fun (e : Prof.entry) -> e.Prof.p_name) (Prof.entries ()) in
  check Alcotest.bool "the windows were generated" true (List.mem "trace.generate" names);
  List.iter
    (fun stage ->
      check Alcotest.bool (stage ^ " not recorded") false (List.mem stage names))
    [ "dependence.concrete-build"; "pipeline.graph"; "pipeline.trace" ]

(* --- the finisher against the parent's sort --- *)

(* [finish] sorts each tenant's samples once and merges the runs; the
   reference heap-sorts every tenant's samples and the pooled samples
   (in tenant order) with [Array.sort], and recomputes every field a
   sort feeds.  The energy fields are not sorted, so it takes them from
   the summary under test. *)
let reference_summary ?deadline_ms samples (s : Account.summary) =
  let sorted a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a
  in
  let mean a =
    let n = Array.length a in
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n
  in
  let top a = if a = [||] then 0.0 else a.(Array.length a - 1) in
  let over k a =
    match deadline_ms with
    | None -> 0
    | Some d -> Array.fold_left (fun n r -> if r > k *. d then n + 1 else n) 0 a
  in
  let stats =
    Array.mapi
      (fun t raw ->
        let a = sorted raw in
        {
          s.Account.tenants.(t) with
          Account.requests = Array.length a;
          response_mean_ms = mean a;
          response_p50_ms = Account.percentile a 0.50;
          response_p95_ms = Account.percentile a 0.95;
          response_p99_ms = Account.percentile a 0.99;
          response_max_ms = top a;
          slo_violations = over 1.0 raw;
          abandoned = over 4.0 raw;
        })
      samples
  in
  let means =
    Array.of_list
      (List.filter_map
         (fun (t : Account.tenant_stats) ->
           if t.Account.requests > 0 then Some t.Account.response_mean_ms else None)
         (Array.to_list stats))
  in
  let fairness =
    let n = Array.length means in
    let sum = Array.fold_left ( +. ) 0.0 means in
    let sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 means in
    if n = 0 || sq = 0.0 then 1.0 else sum *. sum /. (float_of_int n *. sq)
  in
  let pooled = sorted (Array.concat (Array.to_list samples)) in
  let n = Array.length pooled in
  {
    s with
    Account.tenants = stats;
    fairness;
    requests = n;
    response_mean_ms = mean pooled;
    response_p50_ms = Account.percentile pooled 0.50;
    response_p95_ms = Account.percentile pooled 0.95;
    response_p99_ms = Account.percentile pooled 0.99;
    response_max_ms = top pooled;
    slo =
      Option.map
        (fun d ->
          let total k = Array.fold_left (fun acc a -> acc + over k a) 0 samples in
          let abandoned = total 4.0 in
          {
            Account.deadline_ms = d;
            violations = total 1.0;
            abandoned;
            availability =
              (if n = 0 then 1.0 else 1.0 -. (float_of_int abandoned /. float_of_int n));
          })
        deadline_ms;
  }

(* Tenants 1-50 (many empty), responses drawn from a few integers (so
   ties abound) or a continuous range, deadline on or off. *)
let finisher_gen =
  QCheck2.Gen.(
    let* tenants = int_range 1 50 in
    let* deadline_ms = opt (float_range 1.0 100.0) in
    let response = oneof [ map float_of_int (int_range 0 12); float_range 0.0 400.0 ] in
    let* services = list_size (int_range 0 600) (pair (int_range 0 (tenants - 1)) response) in
    return (tenants, deadline_ms, services))

let prop_finisher_matches_heap_sort (tenants, deadline_ms, services) =
  let disks = 3 in
  let sink, finish = Account.recorder ?deadline_ms ~tenants ~disks () in
  let samples = Array.make tenants [] in
  List.iteri
    (fun i (proc, response) ->
      let arrival_ms = 0.5 *. float_of_int i in
      let stop_ms = arrival_ms +. response in
      Dp_obs.Sink.emit sink
        (Dp_obs.Event.Power
           {
             disk = i mod disks;
             state = Dp_obs.Event.Active;
             start_ms = arrival_ms;
             stop_ms;
             charge_ms = response;
             energy_j = response /. 100.0;
           });
      Dp_obs.Sink.emit sink
        (Dp_obs.Event.Service
           {
             disk = i mod disks;
             proc;
             arrival_ms;
             start_ms = arrival_ms;
             stop_ms;
             lba = i;
             bytes = 4096;
           });
      samples.(proc) <- (stop_ms -. arrival_ms) :: samples.(proc))
    services;
  let samples = Array.map (fun l -> Array.of_list (List.rev l)) samples in
  let s = finish () in
  marshal s = marshal (reference_summary ?deadline_ms samples s)

(* --- merged runs against the sorts they replace --- *)

(* The list path the column mux replaced: every stream shifted as a
   list of records, then one stable sort of them all. *)
let list_mux ~rng ~jitter_ms tenants =
  Request.sort_arrival
    (List.concat_map
       (fun (t : Tenant.t) ->
         let child = Splitmix.split rng in
         let offset = if jitter_ms > 0.0 then Splitmix.float child *. jitter_ms else 0.0 in
         List.mapi
           (fun i (r : Request.t) ->
             let arrival_ms = offset +. r.Request.arrival_ms in
             {
               r with
               Request.proc = t.Tenant.index;
               arrival_ms;
               think_ms = (if i = 0 then arrival_ms else r.Request.think_ms);
             })
           (Trace.to_list t.Tenant.stream))
       tenants)

(* Populations with app tenants, whose shared windows tie across
   tenants at jitter 0, as well as OLTP ones. *)
let population_gen =
  QCheck2.Gen.(
    triple (int_range 1 48) (int_range 0 1_000_000)
      (oneof [ pure 0.0; float_range 1.0 60_000.0 ]))

let population tenants seed =
  Tenant.population ~rng:(Splitmix.create seed) ~tenants ~disks:8 ()

let prop_mux_columns_match_list (tenants, seed, jitter_ms) =
  let pop = population tenants seed in
  let columns = Mux.trace ~rng:(Splitmix.create (seed + 1)) ~jitter_ms pop in
  let reference = list_mux ~rng:(Splitmix.create (seed + 1)) ~jitter_ms pop in
  marshal columns = marshal (Trace.of_list reference)
  && marshal (Mux.merge ~rng:(Splitmix.create (seed + 1)) ~jitter_ms pop)
     = marshal reference

module Oracle = Dp_oracle.Oracle
module Hint = Dp_trace.Hint

(* Each tenant's hints planned on its stream alone, concatenated in
   tenant order and stably sorted: the merge [by_proc] replaced. *)
let prop_hints_merge_match_sort (tenants, seed, jitter_ms) =
  let merged =
    Mux.trace ~rng:(Splitmix.create (seed + 1)) ~jitter_ms (population tenants seed)
  in
  let by_tenant = Array.make merged.Trace.procs [] in
  List.iter
    (fun (r : Request.t) -> by_tenant.(r.Request.proc) <- r :: by_tenant.(r.Request.proc))
    (Trace.to_list merged);
  List.for_all
    (fun space ->
      let reference =
        List.stable_sort Hint.compare_at
          (List.concat_map
             (fun reqs -> Oracle.hints ~space ~disks:8 (Trace.of_list (List.rev reqs)))
             (Array.to_list by_tenant))
      in
      marshal (Oracle.hints ~space ~by_proc:true ~disks:8 merged) = marshal reference)
    [ Oracle.Tpm_space; Oracle.Drpm_space; Oracle.Full_space ]

(* Samples from a few values, [-0.] and [0.] among them, so the sort
   meets runs of duplicates and must keep them in input order. *)
let prop_float_sort =
  qtest ~count:300 "finisher's float sort = Array.stable_sort Float.compare"
    QCheck2.Gen.(
      array_size (int_range 0 300)
        (oneof [ oneofl [ 0.0; -0.0; 1.5; 2.0; 1e-3 ]; float_range 0.0 100.0 ]))
    (fun a ->
      let ours = Array.copy a and reference = Array.copy a in
      Account.sort_floats ours;
      Array.stable_sort Float.compare reference;
      marshal ours = marshal reference)

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
        Alcotest.test_case "app windows = head of the whole trace" `Quick
          test_app_windows_match_whole_trace;
        Alcotest.test_case "population builds no graph or trace stage" `Quick
          test_population_builds_no_stage;
        qtest ~count:200 "finisher = heap-sorted reference" finisher_gen
          prop_finisher_matches_heap_sort;
        qtest ~count:40 "column mux = shifted lists, stably sorted" population_gen
          prop_mux_columns_match_list;
        qtest ~count:20 "hints by_proc = per-tenant hints, stably sorted" population_gen
          prop_hints_merge_match_sort;
        prop_float_sort;
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
