module App = Dp_workloads.App
module Workloads = Dp_workloads.Workloads
module Engine = Dp_disksim.Engine
module Generate = Dp_trace.Generate

module Domain_pool = Dp_util.Domain_pool

type matrix = (App.t * (Version.t * Runner.run) list) list

(* Split [xs] into consecutive chunks of [size]. *)
let rec chunks size = function
  | [] -> []
  | xs ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let chunk, rest = take size [] xs in
      chunk :: chunks size rest

let build_matrix ?apps ?cache ?knobs ?obs ?(jobs = 1) ~procs ~versions () =
  let apps = match apps with Some a -> a | None -> Workloads.all () in
  (* One shared context per app: rows fan out over the domain pool and
     meet again in the context's stage memo tables, so the dependence
     graph and each distinct trace are still built once per app. *)
  let ctxs = List.map (fun app -> (app, Runner.context ?cache app)) apps in
  let cells =
    List.concat_map (fun (_, ctx) -> List.map (fun v -> (ctx, v)) versions) ctxs
  in
  let runs =
    Domain_pool.map ~jobs (fun (ctx, v) -> (v, Runner.run ctx ?knobs ?obs ~procs v)) cells
  in
  List.map2
    (fun (app, _) runs -> (app, runs))
    ctxs
    (chunks (List.length versions) runs)

let base_of runs =
  match List.assoc_opt Version.Base runs with
  | Some b -> b
  | None -> invalid_arg "Experiments: matrix lacks a Base run"

let table1 ppf =
  let model = Dp_disksim.Disk_model.ultrastar_36z15 in
  Format.fprintf ppf "@[<v>Table 1: default simulation parameters@,%a@,"
    Dp_disksim.Disk_model.pp model;
  Format.fprintf ppf
    "DRPM window size: 100 requests; stripe unit 32 KB, factor 8, start disk 0 (Table 1 \
     defaults; each workload declares its own row-aligned striping)@,@]"

let table2 ?matrix ppf =
  let matrix =
    match matrix with
    | Some m -> m
    | None -> build_matrix ~procs:1 ~versions:[ Version.Base ] ()
  in
  let rows =
    List.map
      (fun ((app : App.t), runs) ->
        let b = base_of runs in
        let s = b.Runner.summary in
        let data_gb =
          float_of_int (Dp_ir.Ir.total_bytes app.App.program) /. (1024. *. 1024. *. 1024.)
        in
        [
          app.App.name;
          Printf.sprintf "%.2f" data_gb;
          Printf.sprintf "%.1f" app.App.paper_data_gb;
          string_of_int s.Generate.requests;
          string_of_int app.App.paper_requests;
          Printf.sprintf "%.1f" b.Runner.result.Engine.energy_j;
          Printf.sprintf "%.1f" app.App.paper_base_energy_j;
          Printf.sprintf "%.1f" b.Runner.result.Engine.io_time_ms;
          Printf.sprintf "%.1f" app.App.paper_io_time_ms;
          Tabulate.fmt_pct (Generate.io_fraction s);
        ])
      matrix
  in
  Format.fprintf ppf "@[<v>Table 2: application characteristics (ours vs paper)@,";
  Tabulate.render ppf
    ~header:
      [
        "Name"; "GB"; "GB(paper)"; "Reqs"; "Reqs(paper)"; "BaseE(J)"; "BaseE(paper)";
        "IO(ms)"; "IO(paper)"; "IO frac";
      ]
    ~rows;
  Format.fprintf ppf "@]"

let versions_of matrix =
  match matrix with [] -> [] | (_, runs) :: _ -> List.map fst runs

let non_base matrix = List.filter (fun v -> v <> Version.Base) (versions_of matrix)

let average_energy_saving matrix version =
  let values =
    List.map
      (fun (_, runs) ->
        let b = base_of runs in
        1.0 -. Runner.normalized_energy ~base:b (List.assoc version runs))
      matrix
  in
  List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let average_perf_degradation matrix version =
  let values =
    List.map
      (fun (_, runs) ->
        let b = base_of runs in
        Runner.perf_degradation ~base:b (List.assoc version runs))
      matrix
  in
  List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let procs_of matrix =
  match matrix with
  | (_, (_, r) :: _) :: _ -> r.Runner.procs
  | _ -> 1

let fig_energy matrix ppf =
  let versions = non_base matrix in
  let header = "App" :: List.map Version.name versions in
  let rows =
    List.map
      (fun ((app : App.t), runs) ->
        let b = base_of runs in
        app.App.name
        :: List.map
             (fun v -> Tabulate.fmt_norm (Runner.normalized_energy ~base:b (List.assoc v runs)))
             versions)
      matrix
  in
  let avg_row =
    "AVERAGE"
    :: List.map
         (fun v -> Tabulate.fmt_norm (1.0 -. average_energy_saving matrix v))
         versions
  in
  Format.fprintf ppf "@[<v>Figure 9%s: normalized disk energy (%d processor%s; Base = 1.000)@,"
    (if procs_of matrix = 1 then "(a)" else "(b)")
    (procs_of matrix)
    (if procs_of matrix = 1 then "" else "s");
  Tabulate.render ppf ~header ~rows:(rows @ [ avg_row ]);
  List.iter
    (fun v ->
      Format.fprintf ppf "average saving %s: %s@," (Version.name v)
        (Tabulate.fmt_pct (average_energy_saving matrix v)))
    versions;
  Format.fprintf ppf "@]"

(* Fault sweep: the same app and versions re-simulated across a fault
   rate ramp, every point re-seeded identically — how gracefully each
   policy's energy savings and response times degrade as the array gets
   less reliable. *)
type sweep_point = { rate : float; runs : (Version.t * Runner.run) list }
type sweep = { app : App.t; procs : int; seed : int; points : sweep_point list }

let fault_sweep ?(seed = 42) ?(rates = [ 0.0; 0.001; 0.01; 0.05; 0.1 ]) ?cache ?classes
    ?obs ?(jobs = 1) ~procs ~versions app =
  let ctx = Runner.context ?cache app in
  (* rate x version cells share one context: the injector perturbs only
     the simulation, so every point reuses the same memoized traces. *)
  let cells =
    List.concat_map (fun rate -> List.map (fun v -> (rate, v)) versions) rates
  in
  let runs =
    Domain_pool.map ~jobs
      (fun (rate, v) ->
        let faults = Dp_faults.Fault_model.make ?classes ~seed ~rate () in
        let knobs = { Dp_disksim.Knobs.none with faults = Some faults } in
        (v, Runner.run ctx ~knobs ?obs ~procs v))
      cells
  in
  let points =
    List.map2 (fun rate runs -> { rate; runs }) rates (chunks (List.length versions) runs)
  in
  { app; procs; seed; points }

let fig_sweep sweep ppf =
  let versions = match sweep.points with [] -> [] | p :: _ -> List.map fst p.runs in
  let header =
    "Rate" :: List.concat_map (fun v -> [ Version.name v ^ " E(J)"; "degr(ms)" ]) versions
  in
  let rows =
    List.map
      (fun p ->
        Printf.sprintf "%g" p.rate
        :: List.concat_map
             (fun v ->
               let r = List.assoc v p.runs in
               [
                 Printf.sprintf "%.1f" r.Runner.result.Engine.energy_j;
                 Printf.sprintf "%.1f" (Engine.totals r.Runner.result).Engine.degraded_ms;
               ])
             versions)
      sweep.points
  in
  Format.fprintf ppf "@[<v>Fault sweep: %s, %d processor%s, seed %d@,"
    sweep.app.App.name sweep.procs
    (if sweep.procs = 1 then "" else "s")
    sweep.seed;
  Tabulate.render ppf ~header ~rows;
  Format.fprintf ppf "@]"

let fig_perf matrix ppf =
  let versions = non_base matrix in
  let header = "App" :: List.map Version.name versions in
  let rows =
    List.map
      (fun ((app : App.t), runs) ->
        let b = base_of runs in
        app.App.name
        :: List.map
             (fun v -> Tabulate.fmt_pct (Runner.perf_degradation ~base:b (List.assoc v runs)))
             versions)
      matrix
  in
  let avg_row =
    "AVERAGE"
    :: List.map (fun v -> Tabulate.fmt_pct (average_perf_degradation matrix v)) versions
  in
  Format.fprintf ppf
    "@[<v>Figure 10%s: performance degradation (increase in disk I/O time, %d processor%s)@,"
    (if procs_of matrix = 1 then "(a)" else "(b)")
    (procs_of matrix)
    (if procs_of matrix = 1 then "" else "s");
  Tabulate.render ppf ~header ~rows:(rows @ [ avg_row ]);
  Format.fprintf ppf "@]"
