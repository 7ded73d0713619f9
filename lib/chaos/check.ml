module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
module Hint = Dp_trace.Hint
module Bin = Dp_trace.Bin
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Timeline = Dp_disksim.Timeline
module Fault_model = Dp_faults.Fault_model
module Pipeline = Dp_pipeline.Pipeline
module Cachefs = Dp_cachefs.Cachefs
module Account = Dp_serve.Account
module Event = Dp_obs.Event
module Sink = Dp_obs.Sink
module Prof = Dp_obs.Prof
module Report = Dp_obs.Report
module Json_out = Dp_harness.Json_out
module Fsx = Dp_util.Fsx
module Concrete = Dp_dependence.Concrete

type sabotage = Energy_skew

let sabotage_name = function Energy_skew -> "energy"
let sabotage_of_name = function "energy" -> Some Energy_skew | _ -> None
let all_sabotages = [ Energy_skew ]

type violation = { check : string; detail : string }
type outcome = { violations : violation list; runs : int; requests : int }

let shard_counts = [ 2; 4; 8 ]

(* --- canonical artifacts ---

   One run rendered as precise JSON (exact %.17g floats): the
   result header and every per-disk statistic.  Pairs compare the
   results' marshalled bytes, which are as bit-exact and far cheaper;
   the JSON is rendered only to describe a divergence.  Observability
   is compared structurally, in the obs half of each pair check. *)

let json_of_stats (s : Engine.disk_stats) =
  Json_out.Obj
    [
      ("disk", Json_out.Int s.Engine.disk);
      ("requests", Json_out.Int s.Engine.requests);
      ("energy_j", Json_out.Float s.Engine.energy_j);
      ("busy_ms", Json_out.Float s.Engine.busy_ms);
      ("idle_ms", Json_out.Float s.Engine.idle_ms);
      ("standby_ms", Json_out.Float s.Engine.standby_ms);
      ("transition_ms", Json_out.Float s.Engine.transition_ms);
      ("spin_downs", Json_out.Int s.Engine.spin_downs);
      ("spin_ups", Json_out.Int s.Engine.spin_ups);
      ("speed_changes", Json_out.Int s.Engine.speed_changes);
      ("spin_up_retries", Json_out.Int s.Engine.spin_up_retries);
      ("media_retries", Json_out.Int s.Engine.media_retries);
      ("latency_spikes", Json_out.Int s.Engine.latency_spikes);
      ("degraded_ms", Json_out.Float s.Engine.degraded_ms);
      ("remaps", Json_out.Int s.Engine.remaps);
      ("remap_penalty_hits", Json_out.Int s.Engine.remap_penalty_hits);
      ("scrub_chunks", Json_out.Int s.Engine.scrub_chunks);
      ("scrub_found", Json_out.Int s.Engine.scrub_found);
      ("reconstructions", Json_out.Int s.Engine.reconstructions);
      ("rebuild_chunks", Json_out.Int s.Engine.rebuild_chunks);
      ("failovers", Json_out.Int s.Engine.failovers);
      ("disk_failures", Json_out.Int s.Engine.disk_failures);
      ("rebuilds_completed", Json_out.Int s.Engine.rebuilds_completed);
      ("response_ms_total", Json_out.Float s.Engine.response_ms_total);
      ("response_ms_max", Json_out.Float s.Engine.response_ms_max);
      ("last_completion_ms", Json_out.Float s.Engine.last_completion_ms);
    ]

let artifact (r : Engine.result) =
  Json_out.to_string_precise
    (Json_out.Obj
       [
         ("policy", Json_out.String r.Engine.policy);
         ("energy_j", Json_out.Float r.Engine.energy_j);
         ("io_time_ms", Json_out.Float r.Engine.io_time_ms);
         ("makespan_ms", Json_out.Float r.Engine.makespan_ms);
         ("per_disk", Json_out.List (Array.to_list (Array.map json_of_stats r.Engine.per_disk)));
       ])

(* Where two canonical artifacts first diverge, for the reproducer's
   expected-vs-got diff. *)
let first_divergence a b =
  if String.equal a b then None
  else begin
    let n = min (String.length a) (String.length b) in
    let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
    let at = go 0 in
    let context s =
      let lo = max 0 (at - 40) in
      let hi = min (String.length s) (at + 40) in
      String.sub s lo (hi - lo)
    in
    Some
      (Printf.sprintf "diverges at byte %d: expected ...%s... got ...%s..." at (context a)
         (context b))
  end

let marshalled v = Marshal.to_string v [ Marshal.No_sharing ]

(* Two traces equal column for column, floats bit for bit. *)
let same_trace (a : Trace.t) (b : Trace.t) = String.equal (marshalled a) (marshalled b)

let render t =
  String.concat "\n" (List.map (Format.asprintf "%a" Request.pp) (Trace.to_list t))

let result_divergence a b =
  if String.equal (marshalled a) (marshalled b) then None
  else
    Some
      (Option.value
         (first_divergence (artifact a) (artifact b))
         ~default:"results differ in bits their rendering hides")

(* The observability half of a pair comparison: the event streams must
   match structurally (the engine re-merges shard groups back into
   serial order, so equal runs mean equal streams).  The JSONL report
   is only rendered when they differ — byte-identity diagnostics
   without paying the rendering on every green pair. *)
let compare_observed ~add label (base_r, base_events) (r, events) =
  match result_divergence base_r r with
  | Some d -> add (Printf.sprintf "pair:%s" label) d
  | None ->
      if base_events <> events then begin
        let disks = Array.length base_r.Engine.per_disk in
        let render evs = Report.jsonl (Report.of_events ~disks evs) in
        let d =
          Option.value
            (first_divergence (render base_events) (render events))
            ~default:
              (Printf.sprintf "event streams differ (%d vs %d events, equal reports)"
                 (List.length base_events) (List.length events))
        in
        add (Printf.sprintf "pair:%s" label) ("obs " ^ d)
      end

(* --- structural invariants of one run --- *)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)

let obs_invariants ?sabotage ~label ~add (r : Engine.result) events =
  let n = Array.length r.Engine.per_disk in
  let e_sum = Array.make n 0.0 in
  let state_ms = Array.make_matrix n 4 0.0 in
  (* Events are emitted when they resolve but timestamped at their
     start (a power span closes long after it began), so global
     per-disk time is not monotone — but within one disk and one event
     category, emission order must follow the clock. *)
  let category = function
    | Event.Power _ -> 0
    | Event.Service _ -> 1
    | Event.Hint_exec _ -> 2
    | Event.Fault _ -> 3
    | Event.Decision _ -> 4
    | Event.Repair _ -> 5
    | Event.Deadline _ -> 6
  in
  let last_t = Array.make_matrix n 7 Float.neg_infinity in
  List.iter
    (fun ev ->
      let d = Event.disk ev in
      let tm = Event.time_ms ev in
      let c = category ev in
      if tm +. 1e-6 < last_t.(d).(c) then
        add
          (Printf.sprintf "monotone-time:%s" label)
          (Printf.sprintf "disk %d: category-%d event at %.6f ms after one at %.6f ms" d c tm
             last_t.(d).(c));
      if tm > last_t.(d).(c) then last_t.(d).(c) <- tm;
      match ev with
      | Event.Power { disk; state; charge_ms; energy_j; _ } ->
          e_sum.(disk) <- e_sum.(disk) +. energy_j;
          let slot =
            match state with
            | Event.Active -> 0
            | Event.Idle _ -> 1
            | Event.Standby -> 2
            | Event.Transition -> 3
          in
          state_ms.(disk).(slot) <- state_ms.(disk).(slot) +. charge_ms
      | _ -> ())
    events;
  (match sabotage with
  | Some Energy_skew when n > 0 ->
      (* Test-only hook: skew the observed sum so the conservation
         check must fire — the shrinker's acceptance scenario. *)
      e_sum.(0) <- e_sum.(0) +. 1e-3
  | _ -> ());
  Array.iteri
    (fun d (s : Engine.disk_stats) ->
      if not (close e_sum.(d) s.Engine.energy_j) then
        add
          (Printf.sprintf "energy-conservation:%s" label)
          (Printf.sprintf "disk %d: obs power spans sum to %.9f J, engine accounted %.9f J"
             d e_sum.(d) s.Engine.energy_j);
      List.iteri
        (fun slot (name, accounted) ->
          ignore slot;
          if not (close state_ms.(d).(slot) accounted) then
            add
              (Printf.sprintf "charge-accounting:%s" label)
              (Printf.sprintf "disk %d: obs %s spans sum to %.6f ms, stats say %.6f ms" d
                 name state_ms.(d).(slot) accounted))
        [
          ("busy", s.Engine.busy_ms);
          ("idle", s.Engine.idle_ms);
          ("standby", s.Engine.standby_ms);
          ("transition", s.Engine.transition_ms);
        ])
    r.Engine.per_disk

let slo_invariants ~label ~add (r : Engine.result) (summary : Account.summary) =
  if not (close summary.Account.energy_j r.Engine.energy_j) then
    add
      (Printf.sprintf "slo-energy:%s" label)
      (Printf.sprintf "accounting saw %.9f J, engine %.9f J" summary.Account.energy_j
         r.Engine.energy_j);
  let attributed = summary.Account.attributed_j +. summary.Account.unattributed_j in
  if not (close ~eps:1e-6 attributed summary.Account.energy_j) then
    add
      (Printf.sprintf "slo-attribution:%s" label)
      (Printf.sprintf "attributed %.9f + unattributed %.9f J != total %.9f J"
         summary.Account.attributed_j summary.Account.unattributed_j
         summary.Account.energy_j);
  match summary.Account.slo with
  | None ->
      add (Printf.sprintf "slo-missing:%s" label) "deadline armed but no SLO accounting"
  | Some slo ->
      if slo.Account.abandoned > slo.Account.violations then
        add
          (Printf.sprintf "slo-counts:%s" label)
          (Printf.sprintf "%d abandoned > %d violations" slo.Account.abandoned
             slo.Account.violations);
      if slo.Account.availability < 0.0 || slo.Account.availability > 1.0 then
        add
          (Printf.sprintf "slo-availability:%s" label)
          (Printf.sprintf "availability %.9f outside [0, 1]" slo.Account.availability);
      if summary.Account.requests > 0 then begin
        let expected =
          1.0
          -. (float_of_int slo.Account.abandoned /. float_of_int summary.Account.requests)
        in
        if not (close slo.Account.availability expected) then
          add
            (Printf.sprintf "slo-availability:%s" label)
            (Printf.sprintf "availability %.9f, but 1 - %d/%d = %.9f"
               slo.Account.availability slo.Account.abandoned summary.Account.requests
               expected)
      end

(* --- the compile-side oracle ---

   The paper's legality claim for Fig. 3 and Sec 6.2, checked on the
   streams the pipeline actually traced.  Segments are numbered
   processor-major: segment k of processor p is part p * per_proc + k. *)

let compile_violations (g : Concrete.graph) (segs : Dp_trace.Generate.segments array) =
  let orders = Array.of_list (List.concat (Array.to_list segs)) in
  let per_proc = if Array.length segs = 0 then 1 else max 1 (List.length segs.(0)) in
  let n = Concrete.instance_count g in
  let part = Array.make n (-1) in
  Array.iteri
    (fun i order ->
      Array.iter (fun seq -> if seq >= 0 && seq < n then part.(seq) <- i) order)
    orders;
  let finding check detail = [ { check; detail } ] in
  match Array.find_index (fun p -> p < 0) part with
  | Some seq ->
      finding "compile:permutation" (Printf.sprintf "instance %d is in no segment" seq)
  | None -> (
      match Concrete.check_parts g ~part orders with
      | Ok () -> []
      | Error (Concrete.Not_permutation d) -> finding "compile:permutation" ("segment " ^ d)
      | Error (Concrete.Inverted { src; dst }) ->
          finding "compile:legality"
            (Printf.sprintf
               "processor %d segment %d runs instance %d before its dependence source %d"
               (part.(dst) / per_proc) (part.(dst) mod per_proc) dst src))

(* --- the differential oracle --- *)

let cache_dir_counter = Atomic.make 0

(* What the oracle and its direct baseline both run: the scenario's
   context, disk count, trace, policy with its hints, knobs, and the
   rows of the --jobs pair (the adaptive row always included) with
   their hint streams, prebuilt so the pool maps over pure engine
   runs. *)
let prepare (s : Scenario.t) =
  let ctx = Scenario.context s in
  let trace =
    Pipeline.columns ~cluster:s.Scenario.cluster ctx ~procs:s.Scenario.procs s.Scenario.mode
  in
  let hints_for policy =
    Pipeline.hints_for ~cluster:s.Scenario.cluster ctx ~procs:s.Scenario.procs ~policy
      s.Scenario.mode
  in
  let policy = Scenario.policy s in
  let hints = hints_for policy in
  let jobs_rows () =
    List.map
      (fun key ->
        let p = Option.get (Policy.of_name key) in
        (key, p, hints_for p))
      (List.sort_uniq compare [ "none"; s.Scenario.policy; "online" ])
  in
  (ctx, Pipeline.disks ctx, trace, policy, hints, Scenario.knobs s, jobs_rows)

let run ?sabotage (s : Scenario.t) =
  Prof.span "chaos.check" @@ fun () ->
  let ctx, disks, trace, policy, hints, knobs, jobs_rows = prepare s in
  let runs = ref 0 in
  let violations = ref [] in
  let add check detail = violations := { check; detail } :: !violations in
  (* The streams behind [trace] are memoized: this is a lookup, not a
     rebuild. *)
  Prof.span "chaos.compile" (fun () ->
      let segs, _ =
        Pipeline.streams ~cluster:s.Scenario.cluster ctx ~procs:s.Scenario.procs
          s.Scenario.mode
      in
      List.iter
        (fun v -> add v.check v.detail)
        (compile_violations (Pipeline.graph ctx) segs));
  let simulate ?(knobs = knobs) ?obs ?shards ?(hints = hints) policy =
    incr runs;
    Engine.replay ?obs ?shards ~hints ~knobs ~disks policy trace
  in
  (* One observed run: every event collected (in the engine's re-merged
     serial order), with the SLO accounting and, on the base leg, the
     timeline recorder teed in. *)
  let observed ?knobs ?shards ?(invariants = true) ?(timeline = false) label =
    Prof.span "chaos.observed" @@ fun () ->
    let collector, collected = Sink.collect () in
    let account =
      match s.Scenario.deadline_ms with
      | Some d when invariants ->
          Some (Account.recorder ~deadline_ms:d ~tenants:(max 1 s.Scenario.procs) ~disks ())
      | _ -> None
    in
    (* Without a timeline the conservation check still folds the
       per-disk energies; the segment-contiguity half needs the
       timeline and runs on the base leg only. *)
    let recorder = if invariants && timeline then Some (Timeline.recorder ~disks ()) else None in
    let rider r = Option.fold ~none:Sink.null ~some:fst r in
    let r =
      simulate ?knobs ?shards ~obs:(Sink.tee [ collector; rider account; rider recorder ]) policy
    in
    let events = collected () in
    if invariants then begin
      let timeline = Option.map (fun (_, finish) -> finish ()) recorder in
      (match Engine.check_conservation ?timeline r with
      | Ok () -> ()
      | Error detail -> add (Printf.sprintf "conservation:%s" label) detail);
      obs_invariants ?sabotage ~label ~add r events;
      match account with
      | Some (_, finish) -> slo_invariants ~label ~add r (finish ())
      | None -> ()
    end;
    (r, events)
  in
  let base = observed ~timeline:true "base" in
  (* Pair: serial vs sharded {2, 4, 8}.  Invariants run on every
     variant too — a shard-only conservation break should be caught
     even if the artifacts happen to agree. *)
  List.iter
    (fun k ->
      let v = observed ~shards:k (Printf.sprintf "shards-%d" k) in
      compare_observed ~add (Printf.sprintf "shards-%d" k) base v)
    shard_counts;
  (* Pair: a rate-0 fault window vs the clean engine. *)
  (match s.Scenario.faults with
  | None -> ()
  | Some f ->
      let zero = { f with Fault_model.rate = 0.0 } in
      let z = observed ~knobs:{ knobs with faults = Some zero } ~invariants:false "rate0" in
      let c = observed ~knobs:{ knobs with faults = None } ~invariants:false "clean" in
      compare_observed ~add "rate0-clean" c z);
  (* Pair: text vs binary trace round-trip (both directions of the
     codec over the quantized trace, hints and fault window). *)
  Prof.span "chaos.pair.textbin" (fun () ->
    let qs = Bin.quantize trace in
    let qh = List.map Bin.quantize_hint hints in
    let render_h hs = String.concat "\n" (List.map (Format.asprintf "%a" Hint.pp) hs) in
    match Bin.decode (Bin.encode ~hints:qh ?faults:s.Scenario.faults qs) with
    | Error e -> add "pair:text-bin" (Bin.error_to_string e)
    | Ok (reqs', hints', faults', _) ->
        (* Bitwise equality first; the text rendering only prices in
           when a divergence needs localising. *)
        (if not (same_trace qs reqs') then
           match first_divergence (render qs) (render reqs') with
           | None -> add "pair:text-bin" "requests differ (equal rendering)"
           | Some d -> add "pair:text-bin" ("requests " ^ d));
        (if qh <> hints' then
           match first_divergence (render_h qh) (render_h hints') with
           | None -> add "pair:text-bin" "hints differ (equal rendering)"
           | Some d -> add "pair:text-bin" ("hints " ^ d));
        let spec = Option.map Fault_model.to_spec in
        if spec faults' <> spec s.Scenario.faults then
          add "pair:text-bin"
            (Printf.sprintf "fault window %s round-tripped as %s"
               (Option.value ~default:"-" (spec s.Scenario.faults))
               (Option.value ~default:"-" (spec faults'))));
  (* Pair: cold vs warm persistent cache against the in-memory trace.
     A store that cannot even open (exotic tmp) skips the pair — that
     is an environment failure, not an engine one. *)
  Prof.span "chaos.pair.cache" (fun () ->
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dpchaos-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add cache_dir_counter 1))
    in
    Fun.protect
      ~finally:(fun () -> Fsx.remove_tree dir)
      (fun () ->
        match Cachefs.open_store ~dir () with
        | Error _ -> ()
        | Ok store ->
            let fetch label =
              let c = Scenario.context ~cache:store s in
              let t =
                Pipeline.columns ~cluster:s.Scenario.cluster c ~procs:s.Scenario.procs
                  s.Scenario.mode
              in
              if not (same_trace t trace) then begin
                match first_divergence (render trace) (render t) with
                | None ->
                    add (Printf.sprintf "pair:cache-%s" label) "traces differ (equal rendering)"
                | Some d -> add (Printf.sprintf "pair:cache-%s" label) d
              end
            in
            fetch "cold";
            fetch "warm"));
  (* Pair: --jobs 1 vs N over the scenario's policy rows. *)
  Prof.span "chaos.pair.jobs" (fun () ->
    let prepared = jobs_rows () in
    let run_row (_, p, h) = simulate ~hints:h p in
    (* [runs] is bumped inside the pool: count the parallel leg outside
       to keep the counter race-free. *)
    let serial = Prof.span "chaos.pair.jobs.serial" (fun () -> List.map run_row prepared) in
    let n_before = !runs in
    let parallel =
      Prof.span "chaos.pair.jobs.pool" @@ fun () ->
      Dp_util.Domain_pool.map ~jobs:4
        (fun (_, p, h) -> Engine.replay ~hints:h ~knobs ~disks p trace)
        prepared
    in
    runs := n_before + List.length prepared;
    List.iter
      (fun ((key, _, _), (a, b)) ->
        match result_divergence a b with
        | None -> ()
        | Some d -> add (Printf.sprintf "pair:jobs-%s" key) d)
      (List.combine prepared (List.combine serial parallel)));
  { violations = List.rev !violations; runs = !runs; requests = Trace.length trace }

let run_trace (s : Scenario.t) =
  let ctx = Scenario.context s in
  Pipeline.columns ~cluster:s.Scenario.cluster ctx ~procs:s.Scenario.procs s.Scenario.mode

(* The cost baseline the bench section compares the oracle against:
   running the same paired configurations directly, with no invariant
   checking, no artifacts and no observability. *)
let run_direct (s : Scenario.t) =
  let _, disks, trace, policy, hints, knobs, jobs_rows = prepare s in
  let go ?(knobs = knobs) ?shards p h =
    ignore (Engine.replay ?shards ~hints:h ~knobs ~disks p trace)
  in
  go policy hints;
  List.iter (fun k -> go ~shards:k policy hints) shard_counts;
  (match s.Scenario.faults with
  | None -> ()
  | Some f ->
      go ~knobs:{ knobs with faults = Some { f with Fault_model.rate = 0.0 } } policy hints;
      go ~knobs:{ knobs with faults = None } policy hints);
  (* The oracle's cache pair re-derives the trace twice through a
     persistent store; the baseline pays the same pipeline cost. *)
  begin
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dpchaos-direct-%d-%d" (Unix.getpid ())
           (Atomic.fetch_and_add cache_dir_counter 1))
    in
    Fun.protect
      ~finally:(fun () -> Fsx.remove_tree dir)
      (fun () ->
        match Cachefs.open_store ~dir () with
        | Error _ -> ()
        | Ok store ->
            for _ = 1 to 2 do
              let c = Scenario.context ~cache:store s in
              ignore
                (Pipeline.columns ~cluster:s.Scenario.cluster c ~procs:s.Scenario.procs
                   s.Scenario.mode)
            done)
  end;
  (* The jobs pair really does run its second leg on a domain pool —
     the baseline prices that in too, or the gate would charge domain
     spawn-up to the oracle. *)
  let prepared = jobs_rows () in
  List.iter (fun (_, p, h) -> go p h) prepared;
  ignore
    (Dp_util.Domain_pool.map ~jobs:4
       (fun (_, p, h) -> Engine.replay ~hints:h ~knobs ~disks p trace)
       prepared)
