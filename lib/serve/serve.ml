module Splitmix = Dp_util.Splitmix
module Trace = Dp_trace.Trace
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Knobs = Dp_disksim.Knobs
module Fault_model = Dp_faults.Fault_model
module Repair = Dp_repair.Repair
module Oracle = Dp_oracle.Oracle
module Domain_pool = Dp_util.Domain_pool

type selection = All | Offline | Online | Oracle_only

let selection_of_name = function
  | "all" -> Some All
  | "offline" -> Some Offline
  | "online" -> Some Online
  | "oracle" -> Some Oracle_only
  | _ -> None

let selection_name = function
  | All -> "all"
  | Offline -> "offline"
  | Online -> "online"
  | Oracle_only -> "oracle"

type config = {
  tenants : int;
  seed : int;
  disks : int;
  jitter_ms : float;
  jobs : int;
  selection : selection;
  knobs : Knobs.t;
  obs : bool;
  live : bool;
}

let config ?(disks = 8) ?(jitter_ms = 30_000.0) ?(jobs = 1) ?(selection = All)
    ?(knobs = Knobs.none) ?(obs = false) ?(live = false) ~tenants ~seed () =
  if tenants < 1 then invalid_arg "Serve.config: tenants must be >= 1";
  if disks < 1 then invalid_arg "Serve.config: disks must be >= 1";
  if jobs < 1 then invalid_arg "Serve.config: jobs must be >= 1";
  if not (jitter_ms >= 0.0) then invalid_arg "Serve.config: jitter_ms must be >= 0";
  (match Knobs.check knobs with Ok _ -> () | Error msg -> invalid_arg ("Serve.config: " ^ msg));
  (* Decay without a deadline serves under a 500 ms SLO, so a decay run
     reports availability next to energy. *)
  let knobs =
    match knobs.Knobs.faults with
    | Some f
      when knobs.Knobs.deadline_ms = None
           && f.Fault_model.rate > 0.0
           && List.mem Fault_model.Media_decay f.Fault_model.classes ->
        { knobs with Knobs.deadline_ms = Some 500.0 }
    | _ -> knobs
  in
  { tenants; seed; disks; jitter_ms; jobs; selection; knobs; obs; live }

type row = {
  label : string;
  detail : string;
  energy_j : float;
  makespan_ms : float;
  summary : Account.summary option;
  obs : Dp_obs.Report.disk_report array option;
  frames : string option;
}

type report = {
  config : config;
  requests : int;
  kinds : string array;
  rows : row list;
}

(* One report row to compute: a policy simulation (with the hint space
   its offline variant plans in), or the analytic oracle bound. *)
type spec = Sim of string * Policy.t * Oracle.space option | Bound

let specs = function
  | All ->
      [
        Sim ("base", Policy.No_pm, None);
        Sim ("offline-tpm", Policy.tpm ~proactive:true (), Some Oracle.Tpm_space);
        Sim ("offline-drpm", Policy.drpm ~proactive:true (), Some Oracle.Drpm_space);
        Sim ("online", Policy.default_adaptive, None);
        Bound;
      ]
  | Offline ->
      [
        Sim ("base", Policy.No_pm, None);
        Sim ("offline-tpm", Policy.tpm ~proactive:true (), Some Oracle.Tpm_space);
        Sim ("offline-drpm", Policy.drpm ~proactive:true (), Some Oracle.Drpm_space);
      ]
  | Online ->
      [ Sim ("base", Policy.No_pm, None); Sim ("online", Policy.default_adaptive, None) ]
  | Oracle_only -> [ Bound ]

let run cfg =
  Dp_obs.Prof.span "serve.run" @@ fun () ->
  let root = Splitmix.create cfg.seed in
  let pop_rng = Splitmix.split root in
  let mux_rng = Splitmix.split root in
  let tenants = Tenant.population ~rng:pop_rng ~tenants:cfg.tenants ~disks:cfg.disks () in
  (* The kinds are all the report keeps of the population, so the tenant
     streams can be collected once they are merged. *)
  let kinds =
    Array.of_list (List.map (fun (t : Tenant.t) -> Tenant.kind_name t.kind) tenants)
  in
  let merged = Mux.trace ~rng:mux_rng ~jitter_ms:cfg.jitter_ms tenants in
  (* Each tenant's hints are planned on its own shifted stream, as its
     compiler would have planned them. *)
  let offline_hints space = Oracle.hints ~space ~by_proc:true ~disks:cfg.disks merged in
  let run_spec = function
    | Sim (label, policy, hint_space) ->
        let hints =
          match hint_space with None -> [] | Some space -> offline_hints space
        in
        let acct_sink, finish =
          Account.recorder ?deadline_ms:cfg.knobs.Knobs.deadline_ms ~tenants:cfg.tenants
            ~disks:cfg.disks ()
        in
        (* Observability riders are recorders teed in with the
           accounting sink.  The report and the live renderer are both
           keyed on simulated time and buffered per row, so rows stay
           independent and the fan-out stays deterministic. *)
        let report = if cfg.obs then Some (Dp_obs.Report.recorder ~disks:cfg.disks) else None in
        let frame_buf = Buffer.create (if cfg.live then 4096 else 0) in
        let live =
          if not cfg.live then None
          else
            Some
              (Dp_obs.Tty.driver ~mode:Dp_obs.Tty.Plain ~out:(Buffer.add_string frame_buf)
                 (Dp_obs.Live.create ~disks:cfg.disks ()))
        in
        let rider r = Option.fold ~none:Dp_obs.Sink.null ~some:fst r in
        let sink = Dp_obs.Sink.tee [ acct_sink; rider report; rider live ] in
        let res =
          Engine.replay ~obs:sink ~hints ~knobs:cfg.knobs ~disks:cfg.disks policy merged
        in
        {
          label;
          detail = Policy.describe policy;
          energy_j = res.Engine.energy_j;
          makespan_ms = res.Engine.makespan_ms;
          summary = Some (finish ());
          obs = Option.map (fun (_, fin) -> fin ()) report;
          frames =
            Option.map
              (fun (_, fin) ->
                fin ();
                Buffer.contents frame_buf)
              live;
        }
    | Bound ->
        let b =
          Oracle.bound ~space:Oracle.Full_space (Oracle.reference ~disks:cfg.disks merged)
        in
        {
          label = "oracle";
          detail = "offline-optimal lower bound (full space)";
          energy_j = b.Oracle.energy_j;
          makespan_ms = b.Oracle.base.Engine.makespan_ms;
          summary = None;
          obs = None;
          frames = None;
        }
  in
  let rows = Domain_pool.map ~jobs:cfg.jobs run_spec (specs cfg.selection) in
  { config = cfg; requests = Trace.length merged; kinds; rows }

let pp_row ppf r =
  match r.summary with
  | None ->
      Format.fprintf ppf "%-12s  %10.1f J  %10.1f ms  %s" r.label r.energy_j
        r.makespan_ms r.detail
  | Some s ->
      Format.fprintf ppf
        "%-12s  %10.1f J  %10.1f ms  resp mean %.2f p99 %.2f max %.2f ms  fairness \
         %.3f  attributed %.1f J (+%.1f unattributed)"
        r.label r.energy_j r.makespan_ms s.Account.response_mean_ms
        s.Account.response_p99_ms s.Account.response_max_ms s.Account.fairness
        s.Account.attributed_j s.Account.unattributed_j;
      (match s.Account.slo with
      | Some slo ->
          Format.fprintf ppf "  slo %d violations %d abandoned  availability %.4f"
            slo.Account.violations slo.Account.abandoned slo.Account.availability
      | None -> ())

let pp_report ppf t =
  let oltp =
    Array.fold_left (fun n k -> if k = "oltp" then n + 1 else n) 0 t.kinds
  in
  Format.fprintf ppf
    "@[<v>serve: %d tenants (%d oltp, %d app), seed %d, %d disks, %d requests, jitter \
     %.0f ms"
    t.config.tenants oltp
    (t.config.tenants - oltp)
    t.config.seed t.config.disks t.requests t.config.jitter_ms;
  let k = t.config.knobs in
  if Knobs.armed k then begin
    Format.fprintf ppf "@,reliability:";
    (match k.Knobs.faults with
    | Some f when f.Fault_model.rate > 0.0 ->
        Format.fprintf ppf " faults %s" (Fault_model.to_spec f)
    | _ -> ());
    (match k.Knobs.deadline_ms with
    | Some d -> Format.fprintf ppf " deadline %.0f ms" d
    | None -> ());
    (match k.Knobs.repair with
    | Some r -> Format.fprintf ppf " scrub %.0f ms/gap" r.Repair.scrub_budget_ms
    | None -> ());
    (match k.Knobs.spare with
    | Some n -> Format.fprintf ppf " spare %d blocks" n
    | None -> ())
  end;
  Format.fprintf ppf "@,%a@]" (Format.pp_print_list pp_row) t.rows
