module App = Dp_workloads.App
module Engine = Dp_disksim.Engine
module Knobs = Dp_disksim.Knobs
module Json = Dp_util.Json

type t = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let pp ppf t = Json.pp ppf t
let to_string t = Dp_obs.Prof.span "harness.json" (fun () -> Json.to_string t)
let pp_precise ppf t = Json.pp ~floats:Json.Exact ppf t

let to_string_precise t =
  Dp_obs.Prof.span "harness.json" (fun () -> Json.to_string ~floats:Json.Exact t)

let repair_of_result (res : Engine.result) =
  let remaps, hits, chunks, found, recon, rebuild, fo, fails, rebuilt =
    Array.fold_left
      (fun (a, b, c, d, e, f, g, h, i) (s : Engine.disk_stats) ->
        ( a + s.Engine.remaps,
          b + s.Engine.remap_penalty_hits,
          c + s.Engine.scrub_chunks,
          d + s.Engine.scrub_found,
          e + s.Engine.reconstructions,
          f + s.Engine.rebuild_chunks,
          g + s.Engine.failovers,
          h + s.Engine.disk_failures,
          i + s.Engine.rebuilds_completed ))
      (0, 0, 0, 0, 0, 0, 0, 0, 0) res.Engine.per_disk
  in
  if
    remaps = 0 && hits = 0 && chunks = 0 && recon = 0 && rebuild = 0 && fo = 0 && fails = 0
  then []
  else
    [
      ( "repair",
        Obj
          [
            ("remaps", Int remaps);
            ("remap_penalty_hits", Int hits);
            ("scrub_chunks", Int chunks);
            ("scrub_found", Int found);
            ("reconstructions", Int recon);
            ("rebuild_chunks", Int rebuild);
            ("failovers", Int fo);
            ("disk_failures", Int fails);
            ("rebuilds_completed", Int rebuilt);
          ] );
    ]

let of_run (r : Runner.run) =
  let rel = Runner.reliability r in
  Obj
    ([
       ("version", String (Version.name r.Runner.version));
       ("procs", Int r.Runner.procs);
       ("energy_j", Float r.Runner.result.Engine.energy_j);
       ("io_time_ms", Float r.Runner.result.Engine.io_time_ms);
       ("makespan_ms", Float r.Runner.result.Engine.makespan_ms);
       ( "scheduler_rounds",
         match r.Runner.scheduler_rounds with Some n -> Int n | None -> Null );
       ( "reliability",
         Obj
           [
             ("spin_downs", Int rel.Runner.spin_downs);
             ("wear", Float rel.Runner.wear);
             ("spin_up_retries", Int rel.Runner.spin_up_retries);
             ("media_retries", Int rel.Runner.media_retries);
             ("latency_spikes", Int rel.Runner.latency_spikes);
             ("degraded_ms", Float rel.Runner.degraded_ms);
           ] );
     ]
    @ repair_of_result r.Runner.result
    @
    match r.Runner.obs with
    | None -> []
    | Some reports ->
        [ ("obs", List (List.map Dp_obs.Report.to_json (Array.to_list reports))) ])

let of_matrix (matrix : Experiments.matrix) =
  List
    (List.map
       (fun ((app : App.t), runs) ->
         let base = List.assoc Version.Base runs in
         Obj
           [
             ("app", String app.App.name);
             ("description", String app.App.description);
             ( "paper",
               Obj
                 [
                   ("data_gb", Float app.App.paper_data_gb);
                   ("requests", Int app.App.paper_requests);
                   ("base_energy_j", Float app.App.paper_base_energy_j);
                   ("io_time_ms", Float app.App.paper_io_time_ms);
                 ] );
             ( "runs",
               List
                 (List.map
                    (fun (v, r) ->
                      match of_run r with
                      | Obj fields ->
                          Obj
                            (fields
                            @ [
                                ( "normalized_energy",
                                  Float (Runner.normalized_energy ~base r) );
                                ( "perf_degradation",
                                  Float (Runner.perf_degradation ~base r) );
                              ])
                      | other ->
                          ignore v;
                          other)
                    runs) );
           ])
       matrix)

let of_serve_tenant ~kind ~slo (s : Dp_serve.Account.tenant_stats) =
  Obj
    ([
       ("tenant", Int s.Dp_serve.Account.tenant);
       ("kind", String kind);
       ("requests", Int s.Dp_serve.Account.requests);
       ("energy_j", Float s.Dp_serve.Account.energy_j);
       ("response_mean_ms", Float s.Dp_serve.Account.response_mean_ms);
       ("response_p50_ms", Float s.Dp_serve.Account.response_p50_ms);
       ("response_p95_ms", Float s.Dp_serve.Account.response_p95_ms);
       ("response_p99_ms", Float s.Dp_serve.Account.response_p99_ms);
       ("response_max_ms", Float s.Dp_serve.Account.response_max_ms);
     ]
    @
    if slo then
      [
        ("slo_violations", Int s.Dp_serve.Account.slo_violations);
        ("abandoned", Int s.Dp_serve.Account.abandoned);
      ]
    else [])

let of_serve_summary ~kinds (s : Dp_serve.Account.summary) =
  Obj
    ([
      ("attributed_j", Float s.Dp_serve.Account.attributed_j);
      ("unattributed_j", Float s.Dp_serve.Account.unattributed_j);
      ("energy_j", Float s.Dp_serve.Account.energy_j);
      ("fairness", Float s.Dp_serve.Account.fairness);
      ("requests", Int s.Dp_serve.Account.requests);
      ("response_mean_ms", Float s.Dp_serve.Account.response_mean_ms);
      ("response_p50_ms", Float s.Dp_serve.Account.response_p50_ms);
      ("response_p95_ms", Float s.Dp_serve.Account.response_p95_ms);
      ("response_p99_ms", Float s.Dp_serve.Account.response_p99_ms);
      ("response_max_ms", Float s.Dp_serve.Account.response_max_ms);
    ]
    @ (match s.Dp_serve.Account.slo with
      | None -> []
      | Some slo ->
          [
            ( "slo",
              Obj
                [
                  ("deadline_ms", Float slo.Dp_serve.Account.deadline_ms);
                  ("violations", Int slo.Dp_serve.Account.violations);
                  ("abandoned", Int slo.Dp_serve.Account.abandoned);
                  ("availability", Float slo.Dp_serve.Account.availability);
                ] );
          ])
    @ [
        ( "tenants",
          List
            (List.map
               (fun (t : Dp_serve.Account.tenant_stats) ->
                 of_serve_tenant
                   ~kind:kinds.(t.Dp_serve.Account.tenant)
                   ~slo:(s.Dp_serve.Account.slo <> None)
                   t)
               (Array.to_list s.Dp_serve.Account.tenants)) );
      ])

let of_serve (r : Dp_serve.Serve.report) =
  let cfg = r.Dp_serve.Serve.config in
  let k = cfg.Dp_serve.Serve.knobs in
  Obj
    ([
      ("tenants", Int cfg.Dp_serve.Serve.tenants);
      ("seed", Int cfg.Dp_serve.Serve.seed);
      ("disks", Int cfg.Dp_serve.Serve.disks);
      ("jitter_ms", Float cfg.Dp_serve.Serve.jitter_ms);
      ("selection", String (Dp_serve.Serve.selection_name cfg.Dp_serve.Serve.selection));
      ("requests", Int r.Dp_serve.Serve.requests);
     ]
    (* Reliability config extras only when armed: a clean (or rate-0,
       no-deadline) serve JSON stays byte-identical to main. *)
    @ (match k.Knobs.faults with
      | Some f when f.Dp_faults.Fault_model.rate > 0.0 ->
          [ ("faults", String (Dp_faults.Fault_model.to_spec f)) ]
      | _ -> [])
    @ (match k.Knobs.deadline_ms with Some d -> [ ("deadline_ms", Float d) ] | None -> [])
    @ (match k.Knobs.repair with
      | Some rc -> [ ("scrub_budget_ms", Float rc.Dp_repair.Repair.scrub_budget_ms) ]
      | None -> [])
    @ (match k.Knobs.spare with Some n -> [ ("spare_blocks", Int n) ] | None -> [])
    @ [
      ( "rows",
        List
          (List.map
             (fun (row : Dp_serve.Serve.row) ->
               Obj
                 ([
                    ("label", String row.Dp_serve.Serve.label);
                    ("detail", String row.Dp_serve.Serve.detail);
                    ("energy_j", Float row.Dp_serve.Serve.energy_j);
                    ("makespan_ms", Float row.Dp_serve.Serve.makespan_ms);
                  ]
                 @
                 match row.Dp_serve.Serve.summary with
                 | None -> []
                 | Some s ->
                     [ ("summary", of_serve_summary ~kinds:r.Dp_serve.Serve.kinds s) ]))
             r.Dp_serve.Serve.rows) );
      ])

let of_sweep (s : Experiments.sweep) =
  Obj
    [
      ("app", String s.Experiments.app.App.name);
      ("procs", Int s.Experiments.procs);
      ("seed", Int s.Experiments.seed);
      ( "points",
        List
          (List.map
             (fun (p : Experiments.sweep_point) ->
               Obj
                 [
                   ("rate", Float p.Experiments.rate);
                   ("runs", List (List.map (fun (_, r) -> of_run r) p.Experiments.runs));
                 ])
             s.Experiments.points) );
    ]
