type disk_report = {
  disk : int;
  idle_gap_ms : Metrics.histogram;
  response_ms : Metrics.histogram;
  standby_residency_ms : Metrics.histogram;
  mutable busy_ms : float;
  mutable idle_ms : float;
  mutable standby_ms : float;
  mutable transition_ms : float;
  mutable energy_j : float;
  mutable requests : int;
  mutable hints : int;
  mutable faults : int;
  mutable decisions : int;
  mutable repairs : int;
  mutable deadline_misses : int;
}

let gap_edges = Metrics.log_edges ~lo:1.0 ~hi:1e7 ()
let response_edges = Metrics.log_edges ~per_decade:2 ~lo:0.1 ~hi:1e5 ()

let fresh disk =
  {
    disk;
    idle_gap_ms = Metrics.histogram ~edges:gap_edges (Printf.sprintf "disk %d idle gaps (ms)" disk);
    response_ms =
      Metrics.histogram ~edges:response_edges (Printf.sprintf "disk %d response times (ms)" disk);
    standby_residency_ms =
      Metrics.histogram ~edges:gap_edges (Printf.sprintf "disk %d standby residencies (ms)" disk);
    busy_ms = 0.0;
    idle_ms = 0.0;
    standby_ms = 0.0;
    transition_ms = 0.0;
    energy_j = 0.0;
    requests = 0;
    hints = 0;
    faults = 0;
    decisions = 0;
    repairs = 0;
    deadline_misses = 0;
  }

let recorder ~disks =
  if disks < 1 then invalid_arg "Report.recorder: disks must be >= 1";
  let reports = Array.init disks fresh in
  (* Per-disk open runs: start of the current non-active stretch and of
     the current standby stretch (nan = none), plus the last span end. *)
  let gap_start = Array.make disks Float.nan in
  let standby_start = Array.make disks Float.nan in
  let last_stop = Array.make disks 0.0 in
  let close_gap d upto =
    if (not (Float.is_nan gap_start.(d))) && upto > gap_start.(d) then
      Metrics.observe reports.(d).idle_gap_ms (upto -. gap_start.(d));
    gap_start.(d) <- Float.nan
  in
  let close_standby d upto =
    if (not (Float.is_nan standby_start.(d))) && upto > standby_start.(d) then
      Metrics.observe reports.(d).standby_residency_ms (upto -. standby_start.(d));
    standby_start.(d) <- Float.nan
  in
  let feed e =
    match e with
      | Event.Power p ->
          let d = p.disk in
          if d < 0 || d >= disks then invalid_arg "Report.recorder: event disk out of range";
          let r = reports.(d) in
          r.energy_j <- r.energy_j +. p.energy_j;
          (match p.state with
          | Event.Active ->
              r.busy_ms <- r.busy_ms +. p.charge_ms;
              close_gap d p.start_ms;
              close_standby d p.start_ms
          | Event.Idle _ ->
              r.idle_ms <- r.idle_ms +. p.charge_ms;
              if Float.is_nan gap_start.(d) then gap_start.(d) <- p.start_ms;
              close_standby d p.start_ms
          | Event.Standby ->
              r.standby_ms <- r.standby_ms +. p.charge_ms;
              if Float.is_nan gap_start.(d) then gap_start.(d) <- p.start_ms;
              if Float.is_nan standby_start.(d) then standby_start.(d) <- p.start_ms
          | Event.Transition ->
              r.transition_ms <- r.transition_ms +. p.charge_ms;
              if p.stop_ms > p.start_ms && Float.is_nan gap_start.(d) then
                gap_start.(d) <- p.start_ms;
              close_standby d p.start_ms);
          if p.stop_ms > last_stop.(d) then last_stop.(d) <- p.stop_ms
      | Event.Service s ->
          let r = reports.(s.disk) in
          r.requests <- r.requests + 1;
          Metrics.observe r.response_ms (s.stop_ms -. s.arrival_ms)
      | Event.Hint_exec h -> reports.(h.disk).hints <- reports.(h.disk).hints + 1
      | Event.Fault f -> reports.(f.disk).faults <- reports.(f.disk).faults + 1
      | Event.Decision d -> reports.(d.disk).decisions <- reports.(d.disk).decisions + 1
      | Event.Repair r -> reports.(r.disk).repairs <- reports.(r.disk).repairs + 1
      | Event.Deadline d ->
          reports.(d.disk).deadline_misses <- reports.(d.disk).deadline_misses + 1
  in
  let finish () =
    (* The trailing window never ends in a service: close open runs at
       the disk's last accounted instant. *)
    Array.iteri
      (fun d _ ->
        close_standby d last_stop.(d);
        close_gap d last_stop.(d))
      reports;
    reports
  in
  (Sink.stream feed, finish)

let of_events ~disks events =
  let sink, finish = recorder ~disks in
  List.iter (Sink.emit sink) events;
  finish ()

let pp_one ppf r =
  Format.fprintf ppf
    "@[<v>disk %d: %d request(s), %.1f J — busy %.0f ms, idle %.0f ms, standby %.0f ms, \
     transition %.0f ms%s@,%a%a%a@]"
    r.disk r.requests r.energy_j r.busy_ms r.idle_ms r.standby_ms r.transition_ms
    (if r.hints > 0 || r.faults > 0 || r.repairs > 0 || r.deadline_misses > 0 then
       Printf.sprintf " (%d hint(s), %d fault(s), %d repair(s), %d deadline miss(es))"
         r.hints r.faults r.repairs r.deadline_misses
     else "")
    Metrics.pp_histogram r.idle_gap_ms Metrics.pp_histogram r.response_ms Metrics.pp_histogram
    r.standby_residency_ms

let pp ppf reports =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_one)
    (Array.to_list reports)

let hist_to_json (h : Metrics.histogram) : Dp_util.Json.t =
  let open Dp_util.Json in
  let list f xs = List (Array.to_list (Array.map f xs)) in
  Obj
    [ ("edges", list (fun e -> Float e) h.Metrics.edges);
      ("counts", list (fun c -> Int c) h.Metrics.counts);
      ("count", Int h.Metrics.n); ("sum", Float h.Metrics.sum); ("max", Float h.Metrics.vmax) ]

let to_json r : Dp_util.Json.t =
  let open Dp_util.Json in
  Obj
    ([ ("disk", Int r.disk); ("requests", Int r.requests); ("busy_ms", Float r.busy_ms);
       ("idle_ms", Float r.idle_ms); ("standby_ms", Float r.standby_ms);
       ("transition_ms", Float r.transition_ms); ("energy_j", Float r.energy_j);
       ("hints", Int r.hints); ("faults", Int r.faults); ("decisions", Int r.decisions) ]
    (* Repair/deadline counters appear only when nonzero: a run without
       the persistent-failure domain keeps the exact bytes it produced
       before the domain existed. *)
    @ (if r.repairs > 0 || r.deadline_misses > 0 then
         [ ("repairs", Int r.repairs); ("deadline_misses", Int r.deadline_misses) ]
       else [])
    @ [ ("idle_gaps", hist_to_json r.idle_gap_ms); ("response", hist_to_json r.response_ms);
        ("standby_residency", hist_to_json r.standby_residency_ms) ])

let jsonl reports =
  String.concat ""
    (Array.to_list (Array.map (fun r -> Dp_util.Json.to_compact (to_json r) ^ "\n") reports))
