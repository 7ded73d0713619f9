(* Tests for the disk model and the closed-loop power simulator. *)

module Disk_model = Dp_disksim.Disk_model
module Policy = Dp_disksim.Policy
module Engine = Dp_disksim.Engine
module Knobs = Dp_disksim.Knobs
module Timeline = Dp_disksim.Timeline
module Request = Dp_trace.Request
module Ir = Dp_ir.Ir

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let m = Disk_model.ultrastar_36z15

(* A run and the timeline a recorder saw of it. *)
let simulate_tl ?hints ?faults ?shards ~disks policy reqs =
  let obs, finish = Timeline.recorder ~disks () in
  let r = Engine.simulate ~obs ?hints ~knobs:{ Knobs.none with faults } ?shards ~disks policy reqs in
  (r, finish ())

(* A run and what the conservation recorder found in it, each finding
   rendered [IDENTITY: detail]. *)
let simulate_checked ?hints ?(knobs = Knobs.none) ?shards ~disks policy reqs =
  let obs, finish = Engine.recorder ~disks () in
  let r = Engine.simulate ~obs ?hints ~knobs ?shards ~disks policy reqs in
  (r, List.map (fun (f : Engine.finding) -> f.identity ^ ": " ^ f.detail) (finish r))

let faulty ?(retry = Policy.default_retry) faults = { Knobs.none with faults = Some faults; retry }

(* --- model --- *)

let test_model_levels () =
  check Alcotest.(list int) "RPM levels"
    [ 3000; 6000; 9000; 12000; 15000 ]
    (Disk_model.rpm_levels m);
  check Alcotest.int "level count" 5 (Disk_model.level_count m);
  check Alcotest.int "top level rpm" 15000 (Disk_model.rpm_of_level m (Disk_model.top_level m))

let test_model_service () =
  let at rpm = Disk_model.service_ms ~seek_distance:0 m ~rpm ~bytes:(64 * 1024) in
  (* Rotation and transfer scale with 15000/rpm. *)
  check (Alcotest.float 1e-9) "5x slower at 3000" (5.0 *. at 15000) (at 3000);
  let full = Disk_model.service_ms ~seek_distance:max_int m ~rpm:15000 ~bytes:0 in
  check (Alcotest.float 1e-9) "full seek + rotation" (3.4 +. 2.0) full;
  check (Alcotest.float 1e-9) "short seek" (0.4 *. 3.4) (Disk_model.seek_ms_of_distance m 4096);
  check (Alcotest.float 1e-9) "long seek" 3.4
    (Disk_model.seek_ms_of_distance m (1024 * 1024 * 1024))

let test_model_power () =
  check (Alcotest.float 1e-9) "idle at max = datasheet" 10.2
    (Disk_model.idle_power_w m ~rpm:15000);
  check (Alcotest.float 1e-9) "active at max = datasheet" 13.5
    (Disk_model.active_power_w m ~rpm:15000);
  (* Quadratic: at min speed the idle power approaches standby. *)
  let low = Disk_model.idle_power_w m ~rpm:3000 in
  check Alcotest.bool "low idle close to standby" true (low > 2.5 && low < 3.5);
  (* Monotonicity over the levels. *)
  let rec mono = function
    | a :: (b :: _ as rest) ->
        Disk_model.idle_power_w m ~rpm:a < Disk_model.idle_power_w m ~rpm:b && mono rest
    | _ -> true
  in
  check Alcotest.bool "idle power increases with rpm" true (mono (Disk_model.rpm_levels m))

let test_model_transitions () =
  check (Alcotest.float 1e-9) "full spin-up time" 10.9
    (Disk_model.transition_s m ~rpm_from:0 ~rpm_to:15000);
  check (Alcotest.float 1e-6) "one level up time" (10.9 /. 5.)
    (Disk_model.transition_s m ~rpm_from:12000 ~rpm_to:15000);
  check (Alcotest.float 1e-9) "no-op" 0.0 (Disk_model.transition_s m ~rpm_from:9000 ~rpm_to:9000);
  check Alcotest.bool "drpm level transition is fast" true
    (Disk_model.drpm_level_transition_s m < 1.0)

(* --- engine helpers --- *)

let req ?(proc = 0) ?(seg = 0) ?(disk = 0) ?(lba = 0) ~think () =
  {
    Request.arrival_ms = 0.0 (* reference only *);
    think_ms = think;
    seg;
    address = lba;
    lba;
    size = 64 * 1024;
    mode = Ir.Read;
    proc;
    disk;
  }

let service_full =
  Disk_model.service_ms ~seek_distance:max_int m ~rpm:15000 ~bytes:(64 * 1024)

let test_engine_base_two_requests () =
  (* Two requests separated by 100 ms of think time, one disk. *)
  let reqs = [ req ~think:10.0 (); req ~think:100.0 ~lba:(1024 * 1024 * 1024) () ] in
  let r = Engine.simulate ~disks:1 Policy.No_pm reqs in
  check Alcotest.int "two served" 2 r.Engine.per_disk.(0).Engine.requests;
  (* io time = two full-seek services (no queueing). *)
  check (Alcotest.float 1e-6) "io = services" (2.0 *. service_full) r.Engine.io_time_ms;
  check (Alcotest.float 1e-6) "makespan = thinks + services"
    (110.0 +. (2.0 *. service_full))
    r.Engine.makespan_ms;
  (* Energy: idle while thinking, active while serving. *)
  let expected =
    (10.2 *. (110.0 /. 1000.)) +. (13.5 *. (2.0 *. service_full /. 1000.))
  in
  check (Alcotest.float 1e-6) "energy by hand" expected r.Engine.energy_j

let test_engine_queueing () =
  (* Two processors issue at t=1ms to the same disk: the second queues. *)
  let reqs = [ req ~proc:0 ~think:1.0 (); req ~proc:1 ~think:1.0 ~lba:(1 lsl 30) () ] in
  let r = Engine.simulate ~disks:1 Policy.No_pm reqs in
  check (Alcotest.float 1e-6) "io includes queueing"
    (service_full +. (2.0 *. service_full))
    r.Engine.io_time_ms

let test_engine_tpm_reactive () =
  (* Gap of 60 s > threshold: spin down, reactive spin-up stalls. *)
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ] in
  let r = Engine.simulate ~disks:1 Policy.default_tpm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.int "one spin down" 1 d.Engine.spin_downs;
  check Alcotest.int "one spin up" 1 d.Engine.spin_ups;
  check Alcotest.bool "standby time" true (d.Engine.standby_ms > 30_000.0);
  (* The second response includes the 10.9 s spin-up. *)
  check Alcotest.bool "stalled response" true (d.Engine.response_ms_max >= 10_900.0);
  (* Energy accounting by hand: idle threshold + spin down + standby +
     spin up + services + initial idle. *)
  let threshold = 15_200.0 and sd = 1_500.0 in
  let standby = 60_000.0 -. threshold -. sd in
  let expected =
    (10.2 *. ((10.0 +. threshold) /. 1000.))
    +. 13.0 +. 135.0
    +. (2.5 *. (standby /. 1000.))
    +. (13.5 *. (2.0 *. service_full /. 1000.))
  in
  check (Alcotest.float 0.5) "TPM energy by hand" expected r.Engine.energy_j

let test_engine_closed_loop () =
  (* Closed loop: the third request issues 100 ms after the second
     completes, so the reactive spin-up stalling the second shifts the
     third by exactly the stall. *)
  let at arrival r = { r with Request.arrival_ms = arrival } in
  let reqs =
    [
      at 10.0 (req ~think:10.0 ());
      at 60_020.0 (req ~think:60_000.0 ~lba:(1 lsl 30) ());
      at 60_130.0 (req ~think:100.0 ());
    ]
  in
  let services policy =
    let sink, events = Dp_obs.Sink.collect () in
    ignore (Engine.simulate ~obs:sink ~disks:1 policy reqs);
    List.filter_map
      (function Dp_obs.Event.Service s -> Some (s.arrival_ms, s.stop_ms) | _ -> None)
      (events ())
  in
  match (services Policy.No_pm, services Policy.default_tpm) with
  | [ _; (a2, c2); (a3, _) ], [ _; (a2', c2'); (a3', _) ] ->
      check (Alcotest.float 0.0) "stalled request issues on time" a2 a2';
      let stall = c2' -. c2 in
      check Alcotest.bool "spin-up stall" true (stall >= 10_000.0);
      check (Alcotest.float 1e-6) "next request shifted by the stall" (a3 +. stall) a3';
      check (Alcotest.float 1e-6) "think time after completion" (c2' +. 100.0) a3'
  | _ -> Alcotest.fail "expected three services per run"

let test_engine_tpm_mid_spin_down () =
  (* The second request arrives 800 ms into the spin-down that starts
     15.2 s into the gap.  The spin-down still runs its full 1.5 s, so
     the whole of it is charged and the state times cover the timeline. *)
  let reqs = [ req ~think:10.0 (); req ~think:16_000.0 ~lba:(1 lsl 30) () ] in
  let r, findings = simulate_checked ~disks:1 Policy.default_tpm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.int "one spin down" 1 d.Engine.spin_downs;
  check (Alcotest.float 1e-6) "full spin-down and spin-up charged" (1_500.0 +. 10_900.0)
    d.Engine.transition_ms;
  check Alcotest.(list string) "conservation" [] findings

let test_engine_tpm_short_gap () =
  (* Gap below threshold: no transitions at all. *)
  let reqs = [ req ~think:10.0 (); req ~think:10_000.0 ~lba:(1 lsl 30) () ] in
  let r = Engine.simulate ~disks:1 Policy.default_tpm reqs in
  check Alcotest.int "no spin downs" 0 r.Engine.per_disk.(0).Engine.spin_downs;
  let base = Engine.simulate ~disks:1 Policy.No_pm reqs in
  check (Alcotest.float 1e-6) "same energy as base" base.Engine.energy_j r.Engine.energy_j

let test_engine_tpm_proactive () =
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ] in
  let reactive = Engine.simulate ~disks:1 Policy.default_tpm reqs in
  let proactive = Engine.simulate ~disks:1 (Policy.tpm ~proactive:true ()) reqs in
  (* No service stall... *)
  check (Alcotest.float 1e-6) "no stall"
    (2.0 *. service_full)
    proactive.Engine.io_time_ms;
  check Alcotest.bool "reactive stalls" true
    (reactive.Engine.io_time_ms > 10_000.0);
  (* ...and at least as much energy saved. *)
  let base = Engine.simulate ~disks:1 Policy.No_pm reqs in
  check Alcotest.bool "saves vs base" true
    (proactive.Engine.energy_j < base.Engine.energy_j);
  check Alcotest.int "spin down occurred" 1 proactive.Engine.per_disk.(0).Engine.spin_downs

let test_engine_drpm_downshift () =
  (* A 10 s gap with a 1 s per-level threshold: several levels down, then
     a serve ramps back up. *)
  let reqs = [ req ~think:10.0 (); req ~think:10_000.0 ~lba:(1 lsl 30) () ] in
  let r = Engine.simulate ~disks:1 Policy.default_drpm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.bool "speed changed" true (d.Engine.speed_changes > 0);
  let base = Engine.simulate ~disks:1 Policy.No_pm reqs in
  check Alcotest.bool "saves energy" true (r.Engine.energy_j < base.Engine.energy_j);
  (* The second request is served below full speed: some slowdown. *)
  check Alcotest.bool "bounded slowdown" true
    (r.Engine.io_time_ms < 6.0 *. base.Engine.io_time_ms)

let test_engine_drpm_proactive () =
  let reqs = [ req ~think:10.0 (); req ~think:30_000.0 ~lba:(1 lsl 30) () ] in
  let reactive = Engine.simulate ~disks:1 Policy.default_drpm reqs in
  let proactive = Engine.simulate ~disks:1 (Policy.drpm ~proactive:true ()) reqs in
  (* No slowdown at all: both requests served at full speed. *)
  check (Alcotest.float 1e-6) "io = services" (2.0 *. service_full)
    proactive.Engine.io_time_ms;
  let base = Engine.simulate ~disks:1 Policy.No_pm reqs in
  check Alcotest.bool "saves vs base" true (proactive.Engine.energy_j < base.Engine.energy_j);
  check Alcotest.bool "at least as good as reactive" true
    (proactive.Engine.energy_j <= reactive.Engine.energy_j +. 1.0);
  check Alcotest.bool "planned shifts happened" true
    (proactive.Engine.per_disk.(0).Engine.speed_changes >= 2)

let test_engine_validation () =
  (match Engine.simulate ~disks:0 Policy.No_pm [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disks=0 must be rejected");
  (* A non-finite time would never come up in issue order: the request
     must be refused, not silently dropped. *)
  List.iter
    (fun (name, r) ->
      match Engine.simulate ~disks:1 Policy.No_pm [ req ~think:1.0 (); r ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s must be rejected" name)
    [
      ("out-of-range disk", req ~disk:3 ~think:1.0 ());
      ("nan think", req ~think:Float.nan ());
      ("infinite think", req ~think:Float.infinity ());
      ("nan arrival", { (req ~think:1.0 ()) with Request.arrival_ms = Float.nan });
    ];
  (* A non-finite hint time would sort before every other hint and stall
     the disk's hint stream; a non-finite lead has no instant to act at. *)
  List.iter
    (fun (name, h) ->
      match
        Engine.simulate ~hints:[ h ] ~disks:1 (Policy.tpm ~proactive:true ())
          [ req ~think:1.0 (); req ~think:20_000.0 () ]
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s must be rejected" name)
    (let open Dp_trace.Hint in
     List.map
       (fun (name, at_ms, action) -> (name, { at_ms; disk = 0; action }))
       [
         ("nan hint time", Float.nan, Spin_down);
         ("infinite hint time", Float.infinity, Set_rpm 3000);
         ("nan lead", 10.0, Pre_spin_up Float.nan);
         ("infinite lead", 10.0, Pre_spin_up Float.neg_infinity);
       ])

(* A negative processor or segment names the field instead of indexing
   a queue out of bounds. *)
let test_engine_negative_ids () =
  List.iter
    (fun (field, r) ->
      match Engine.simulate ~disks:1 Policy.No_pm [ req ~think:1.0 (); r ] with
      | exception Invalid_argument msg ->
          check Alcotest.bool
            (Printf.sprintf "names %s (got %S)" field msg)
            true
            (msg = Printf.sprintf "Engine.simulate: request with negative %s -1" field)
      | _ -> Alcotest.failf "negative %s must be rejected" field)
    [ ("proc", req ~proc:(-1) ~think:1.0 ()); ("seg", req ~seg:(-1) ~think:1.0 ()) ]

(* The issue order shared by the serial loop and the shard merge: among
   processors due at the same instant the lower index issues first. *)
let test_engine_issue_ties () =
  let tied ~disks =
    List.init 64 (fun i ->
        let p = 63 - i in
        req ~proc:p ~disk:(p mod disks) ~think:0.0 ())
  in
  let record ?shards ~disks () =
    let sink, events = Dp_obs.Sink.collect () in
    ignore (Engine.simulate ~obs:sink ?shards ~disks Policy.No_pm (tied ~disks));
    events ()
  in
  let service_procs es =
    List.filter_map (function Dp_obs.Event.Service { proc; _ } -> Some proc | _ -> None) es
  in
  let in_order = List.init 64 Fun.id in
  check Alcotest.(list int) "one disk: processor order" in_order
    (service_procs (record ~disks:1 ()));
  let serial = record ~disks:8 () in
  check Alcotest.(list int) "eight disks: processor order" in_order (service_procs serial);
  List.iter
    (fun shards ->
      check Alcotest.bool
        (Printf.sprintf "eight disks: shards %d = serial" shards)
        true
        (record ~shards ~disks:8 () = serial))
    [ 2; 4; 8 ]

(* Random traces: physical sanity invariants under every policy. *)
let trace_gen =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (map2
         (fun think disk -> req ~think:(float_of_int think) ~disk ~lba:(disk * 7919 * 4096) ())
         (int_range 1 30_000) (int_range 0 2)))

let energy_bounds policy =
  qtest ~count:60
    (Printf.sprintf "Engine(%s): energy within physical bounds" (Policy.name policy))
    trace_gen
    (fun reqs ->
      let r = Engine.simulate ~disks:3 policy reqs in
      let span_s = r.Engine.makespan_ms /. 1000.0 in
      let upper = 3.0 *. 13.5 *. span_s +. 200.0 (* transitions *) in
      (* standby floor: no disk can consume less than standby power,
         minus nothing; transitions only add. *)
      let lower = 3.0 *. 2.5 *. span_s *. 0.99 in
      r.Engine.energy_j >= lower && r.Engine.energy_j <= upper +. 300.0)

let prop_io_time_consistent =
  qtest ~count:60 "Engine: io time >= sum of minimal services" trace_gen (fun reqs ->
      let r = Engine.simulate ~disks:3 Policy.No_pm reqs in
      let min_total =
        List.fold_left
          (fun acc (rq : Request.t) ->
            acc +. Disk_model.service_ms ~seek_distance:0 m ~rpm:15000 ~bytes:rq.size)
          0.0 reqs
      in
      r.Engine.io_time_ms >= min_total -. 1e-6)

let prop_proactive_never_slower =
  qtest ~count:60 "Engine: proactive TPM never inflates io time" trace_gen (fun reqs ->
      let base = Engine.simulate ~disks:3 Policy.No_pm reqs in
      let pro = Engine.simulate ~disks:3 (Policy.tpm ~proactive:true ()) reqs in
      pro.Engine.io_time_ms <= base.Engine.io_time_ms +. 1e-6
      && pro.Engine.energy_j <= base.Engine.energy_j +. 1e-6)

(* The engine orders the trace itself: its per (segment, processor)
   queues come from one sort, so any permutation of a trace with
   distinct (arrival, proc, address) keys gives the same result, byte
   for byte, sharded or not.  Segment ids need not rise with arrival
   time and may skip values: an empty segment's barrier is a no-op, so
   renumbering the ids densely changes nothing either. *)
let permuted_gen =
  QCheck2.Gen.(
    let* procs = int_range 1 6 in
    let* n = int_range 1 40 in
    let* reqs =
      flatten_l
        (List.init n (fun i ->
             map3
               (fun (proc, disk) seg (think, arrival) ->
                 {
                   (req ~proc ~seg ~disk ~lba:(i * 7919 * 4096) ~think:(float_of_int think) ())
                   with
                   Request.arrival_ms = float_of_int ((arrival * 64) + i);
                 })
               (pair (int_range 0 (procs - 1)) (int_range 0 2))
               (oneofl [ 0; 2; 5 ])
               (pair (int_range 1 30_000) (int_range 0 1000))))
    in
    pair (return reqs) (shuffle_l reqs))

let prop_permutation_invariant =
  qtest ~count:40 "Engine: result independent of request order and segment numbering"
    permuted_gen (fun (reqs, shuffled) ->
      let dense =
        List.map
          (fun (r : Request.t) -> { r with seg = (match r.seg with 0 -> 0 | 2 -> 1 | _ -> 2) })
          reqs
      in
      let bytes ~shards policy reqs =
        Marshal.to_string (Engine.simulate ~shards ~disks:3 policy reqs) [ Marshal.No_sharing ]
      in
      List.for_all
        (fun policy ->
          List.for_all
            (fun shards ->
              let base = bytes ~shards policy reqs in
              base = bytes ~shards policy shuffled && base = bytes ~shards policy dense)
            [ 1; 4 ])
        [ Policy.No_pm; Policy.default_tpm; Policy.default_drpm ])

let prop_proactive_drpm_never_slower =
  qtest ~count:60 "Engine: proactive DRPM never inflates io time" trace_gen (fun reqs ->
      let base = Engine.simulate ~disks:3 Policy.No_pm reqs in
      let pro = Engine.simulate ~disks:3 (Policy.drpm ~proactive:true ()) reqs in
      pro.Engine.io_time_ms <= base.Engine.io_time_ms +. 1e-6)

let test_policy_names () =
  check Alcotest.string "none" "none" (Policy.name Policy.No_pm);
  check Alcotest.string "tpm" "TPM" (Policy.name Policy.default_tpm);
  check Alcotest.string "drpm" "DRPM" (Policy.name Policy.default_drpm);
  (* Chaos draws by index into this list: its order is part of every
     golden soak count. *)
  check
    Alcotest.(list string)
    "names in chaos draw order"
    [ "none"; "tpm"; "tpm-proactive"; "drpm"; "drpm-proactive"; "online" ]
    Policy.names;
  check
    Alcotest.(list string)
    "of_name describes each name's default"
    [
      "none (always at full speed)";
      Policy.describe Policy.default_tpm;
      Policy.describe (Policy.tpm ~proactive:true ());
      Policy.describe Policy.default_drpm;
      Policy.describe (Policy.drpm ~proactive:true ());
      Policy.describe Policy.default_adaptive;
    ]
    (List.map (fun n -> Policy.describe (Option.get (Policy.of_name n))) Policy.names);
  check Alcotest.bool "unknown name" true (Policy.of_name "oracle-tpm" = None)

let test_policy_tunables_rejected () =
  List.iter
    (fun (name, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s must be rejected" name)
    [
      ("tpm nan threshold", fun () -> Policy.tpm ~idle_threshold_s:Float.nan ());
      ("tpm negative threshold", fun () -> Policy.tpm ~idle_threshold_s:(-5.0) ());
      ("drpm window 0", fun () -> Policy.drpm ~window_size:0 ());
      ("drpm nan downshift", fun () -> Policy.drpm ~downshift_idle_ms:Float.nan ());
      ("drpm negative downshift", fun () -> Policy.drpm ~downshift_idle_ms:(-1.0) ());
    ]

let test_drpm_two_speed_floor () =
  (* With a 9000 floor, a long gap never reaches the bottom levels. *)
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ] in
  let floored = Engine.simulate ~disks:1 (Policy.drpm ~min_rpm:9000 ()) reqs in
  let full = Engine.simulate ~disks:1 Policy.default_drpm reqs in
  check Alcotest.bool "floored saves less" true
    (floored.Engine.energy_j > full.Engine.energy_j);
  (* Two levels down from 15000 to 9000: exactly 2 gap downshifts. *)
  check Alcotest.bool "at most 2 downshifts in the gap" true
    (floored.Engine.per_disk.(0).Engine.speed_changes <= 4)

let test_engine_segments_barrier () =
  (* Two procs, two segments: proc 1's segment-1 request cannot start
     before proc 0 finishes segment 0, even though its think is tiny. *)
  let r0 = req ~proc:0 ~seg:0 ~think:5_000.0 () in
  let r1 = { (req ~proc:1 ~seg:1 ~think:1.0 ~lba:(1 lsl 30) ()) with Request.disk = 0 } in
  let res = Engine.simulate ~disks:1 Policy.No_pm [ r0; r1 ] in
  (* makespan >= 5s + two services. *)
  check Alcotest.bool "barrier enforced" true
    (res.Engine.makespan_ms >= 5_000.0 +. (2.0 *. service_full) -. 1e-6)

(* --- timeline recording --- *)

module Obs_event = Dp_obs.Event

let test_timeline_recording () =
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ] in
  let r, t = simulate_tl ~disks:1 Policy.default_tpm reqs in
  (* Segments are chronological and contiguous-ish, covering the stats. *)
  let segs = t.(0) in
  check Alcotest.bool "nonempty" true (segs <> []);
  let ordered =
    let rec ok = function
      | (a : Timeline.segment) :: (b :: _ as rest) -> a.stop_ms <= b.start_ms +. 1e-6 && ok rest
      | _ -> true
    in
    ok segs
  in
  check Alcotest.bool "chronological" true ordered;
  let d = r.Engine.per_disk.(0) in
  check (Alcotest.float 1.0) "busy matches stats" d.Engine.busy_ms
    (Timeline.state_time_ms t ~disk:0 Obs_event.Active);
  check (Alcotest.float 1.0) "standby matches stats" d.Engine.standby_ms
    (Timeline.state_time_ms t ~disk:0 Obs_event.Standby);
  check (Alcotest.float 1.0) "idle matches stats" d.Engine.idle_ms
    (Timeline.state_time_ms t ~disk:0 (Obs_event.Idle (-1)));
  (* The renderer produces one row plus the legend. *)
  let chart = Timeline.render ~width:40 ~model:m ~until_ms:r.Engine.makespan_ms t in
  check Alcotest.int "two lines" 2
    (List.length (String.split_on_char '\n' (String.trim chart)))

(* --- fault injection and degraded-mode accounting --- *)

module Fault_model = Dp_faults.Fault_model
module Hint = Dp_trace.Hint

let all_policies =
  [
    Policy.No_pm;
    Policy.default_tpm;
    Policy.default_drpm;
    Policy.tpm ~proactive:true ();
    Policy.drpm ~proactive:true ();
  ]

(* Random traces paired with a random fault configuration. *)
let faulted_gen =
  QCheck2.Gen.(
    triple trace_gen (int_range 0 10_000)
      (map (fun r -> float_of_int r /. 100.0) (int_range 0 40)))

let prop_rate_zero_identity =
  qtest ~count:40 "Engine: rate-0 faults reproduce the fault-free run exactly"
    (QCheck2.Gen.pair trace_gen (QCheck2.Gen.int_range 0 10_000))
    (fun (reqs, seed) ->
      let faults = Fault_model.make ~seed ~rate:0.0 () in
      List.for_all
        (fun policy ->
          simulate_tl ~disks:3 policy reqs = simulate_tl ~faults ~disks:3 policy reqs)
        all_policies)

let prop_fault_determinism =
  qtest ~count:40 "Engine: same fault seed, same run" faulted_gen (fun (reqs, seed, rate) ->
      let faults = Fault_model.make ~seed ~rate () in
      List.for_all
        (fun policy ->
          Engine.simulate ~knobs:(faulty faults) ~disks:3 policy reqs
          = Engine.simulate ~knobs:(faulty faults) ~disks:3 policy reqs)
        all_policies)

let contiguous segs =
  let rec ok = function
    | (a : Timeline.segment) :: (b :: _ as rest) ->
        Float.abs (b.Timeline.start_ms -. a.Timeline.stop_ms) <= 1e-6
        && b.Timeline.stop_ms >= b.Timeline.start_ms -. 1e-9
        && ok rest
    | _ -> true
  in
  ok segs

let prop_timeline_contiguous =
  qtest ~count:40 "Engine: timeline segments contiguous and non-overlapping under faults"
    faulted_gen (fun (reqs, seed, rate) ->
      let faults = Fault_model.make ~seed ~rate () in
      List.for_all
        (fun policy ->
          let _, t = simulate_tl ~faults ~disks:3 policy reqs in
          Array.for_all contiguous t)
        all_policies)

(* The conservation recorder finds nothing: span energies within 1e-9 of
   the per-disk totals, and every other identity it checks. *)
let prop_energy_conserved =
  qtest ~count:40 "Engine: segment energies sum to the per-disk totals under faults"
    faulted_gen (fun (reqs, seed, rate) ->
      let faults = Fault_model.make ~seed ~rate () in
      List.for_all
        (fun policy ->
          match simulate_checked ~knobs:(faulty faults) ~disks:3 policy reqs with
          | _, [] -> true
          | _, f :: _ -> QCheck2.Test.fail_reportf "%s: %s" (Policy.name policy) f)
        all_policies)

let prop_faults_terminate =
  (* Even at rate 1 with every class enabled, bounded retries mean the
     run completes and every request is served. *)
  qtest ~count:30 "Engine: rate-1 faults still terminate, all requests served" trace_gen
    (fun reqs ->
      let faults = Fault_model.make ~seed:1 ~rate:1.0 () in
      List.for_all
        (fun policy ->
          let r = Engine.simulate ~knobs:(faulty faults) ~disks:3 policy reqs in
          let served =
            Array.fold_left (fun acc d -> acc + d.Engine.requests) 0 r.Engine.per_disk
          in
          served = List.length reqs && Float.is_finite r.Engine.makespan_ms)
        all_policies)

let test_spin_up_retries_accounted () =
  (* TPM over a long gap with certain spin-up faults: the reactive
     spin-up needs max_attempts tries, each a full spin-up. *)
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ] in
  let faults = Fault_model.make ~classes:[ Fault_model.Spin_up_failure ] ~seed:1 ~rate:1.0 () in
  let retry = Policy.retry ~max_attempts:3 () in
  let clean = Engine.simulate ~disks:1 Policy.default_tpm reqs in
  let r = Engine.simulate ~knobs:(faulty ~retry faults) ~disks:1 Policy.default_tpm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.int "two failed attempts" 2 d.Engine.spin_up_retries;
  check (Alcotest.float 1e-6) "degraded = failed attempts" (2.0 *. 10_900.0) d.Engine.degraded_ms;
  check (Alcotest.float 0.5) "energy = clean + 2 spin-ups"
    (clean.Engine.energy_j +. (2.0 *. 135.0))
    r.Engine.energy_j;
  check Alcotest.bool "stall grew by the failed attempts" true
    (r.Engine.io_time_ms >= clean.Engine.io_time_ms +. (2.0 *. 10_900.0) -. 1e-6)

let test_media_retries_accounted () =
  let reqs = [ req ~think:10.0 (); req ~think:100.0 ~lba:(1 lsl 30) () ] in
  let faults = Fault_model.make ~classes:[ Fault_model.Media_error ] ~seed:1 ~rate:1.0 () in
  let retry = Policy.retry ~max_attempts:2 ~backoff_base_ms:5.0 () in
  let clean = Engine.simulate ~disks:1 Policy.No_pm reqs in
  let r = Engine.simulate ~knobs:(faulty ~retry faults) ~disks:1 Policy.No_pm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.int "one retry per request" 2 d.Engine.media_retries;
  let reread = Disk_model.service_ms ~seek_distance:0 m ~rpm:15000 ~bytes:(64 * 1024) in
  check (Alcotest.float 1e-6) "degraded = backoff + re-service"
    (2.0 *. (5.0 +. reread))
    d.Engine.degraded_ms;
  check Alcotest.bool "io time grew" true (r.Engine.io_time_ms > clean.Engine.io_time_ms)

let test_latency_spikes_accounted () =
  let reqs = [ req ~think:10.0 (); req ~think:100.0 ~lba:(1 lsl 30) () ] in
  let faults =
    Fault_model.make ~classes:[ Fault_model.Latency_spike ] ~spike_ms:50.0 ~seed:1 ~rate:1.0 ()
  in
  let r = Engine.simulate ~knobs:(faulty faults) ~disks:1 Policy.No_pm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.int "every request spikes" 2 d.Engine.latency_spikes;
  check (Alcotest.float 1e-6) "degraded = spikes" 100.0 d.Engine.degraded_ms

let test_stuck_rpm_hinted_fallback () =
  (* A hinted proactive DRPM run whose speed commands are all refused:
     the directives are invalidated, the policy degrades to its reactive
     twin, and the run still completes with every request served. *)
  let r2 = { (req ~think:30_000.0 ~lba:(1 lsl 30) ()) with Request.arrival_ms = 30_010.0 } in
  let reqs = [ req ~think:10.0 (); r2 ] in
  let hints = [ { Hint.at_ms = 30_000.0; disk = 0; action = Hint.Set_rpm 3000 } ] in
  let faults =
    Fault_model.make ~classes:[ Fault_model.Stuck_rpm ] ~stuck_window_ms:1e9 ~seed:1 ~rate:1.0 ()
  in
  let policy = Policy.drpm ~proactive:true () in
  let clean = Engine.simulate ~hints ~disks:1 policy reqs in
  let r = Engine.simulate ~hints ~knobs:(faulty faults) ~disks:1 policy reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.int "both served despite refused shifts" 2 d.Engine.requests;
  check Alcotest.bool "terminates" true (Float.is_finite r.Engine.makespan_ms);
  (* The clean run dips and recovers; the stuck run is pinned at full
     speed (the lock hits before any downshift), so it spends more. *)
  check Alcotest.int "no speed changes under the lock" 0 d.Engine.speed_changes;
  check Alcotest.bool "stuck run spends more" true (r.Engine.energy_j > clean.Engine.energy_j)

let test_stuck_rpm_fallback_drops_directives () =
  (* The third request is served inside a stuck-RPM window, so it falls
     back to reactive DRPM.  Its window's Set_rpm 12000 must leave with
     it: the 120 s window after it executes its own Set_rpm 3000, exactly
     as if the stale directive had never been emitted.  A stale directive
     left queued would be the first the next window pops, and the disk
     would idle that window at 12000 rpm. *)
  let reqs =
    Test_oracle.nominalize ~disks:1
      (List.map (fun think -> req ~think ()) [ 0.0; 20_000.0; 2_200.0; 120_000.0 ])
  in
  let hints = Dp_oracle.Oracle.hints_of_trace ~space:Dp_oracle.Oracle.Drpm_space ~disks:1 reqs in
  check
    Alcotest.(list string)
    "one Set_rpm per window"
    [ "set-rpm(3000)"; "set-rpm(12000)"; "set-rpm(3000)" ]
    (List.map (fun (h : Hint.t) -> Hint.action_name h.Hint.action) hints);
  let knobs =
    faulty
      (Fault_model.make ~classes:[ Fault_model.Stuck_rpm ] ~stuck_window_ms:21_500. ~seed:4
         ~rate:0.5 ())
  in
  let policy = Policy.drpm ~proactive:true () in
  let run hints = Engine.simulate ~hints ~knobs ~disks:1 policy reqs in
  let without_stale =
    List.filter (fun (h : Hint.t) -> h.Hint.action <> Hint.Set_rpm 12000) hints
  in
  check (Alcotest.float 0.05) "energy of the stale-free run" 866.9 (run hints).Engine.energy_j;
  check Alcotest.bool "same run as without the stale directive" true
    (run hints = run without_stale);
  (* The event log names only the directives that ran: the dropped
     Set_rpm 12000 leaves no Hint_exec behind. *)
  let executed hints =
    let sink, collected = Dp_obs.Sink.collect () in
    ignore (Engine.simulate ~obs:sink ~hints ~knobs ~disks:1 policy reqs);
    List.filter_map
      (function Dp_obs.Event.Hint_exec { action; _ } -> Some action | _ -> None)
      (collected ())
  in
  check
    Alcotest.(list string)
    "Hint_exec events" [ "set-rpm(3000)"; "set-rpm(3000)" ] (executed hints);
  check Alcotest.(list string) "as without the stale directive" (executed without_stale)
    (executed hints)

let test_empty_window_logs_no_hint () =
  (* Processor 1 issues while processor 0's request still holds the
     disk, so the window its directive addresses closes before it
     opens: the directive is dropped, and the event log must not name
     it. *)
  let reqs = [ req ~think:0.0 (); req ~proc:1 ~lba:(1 lsl 30) ~think:1.0 () ] in
  let hints = [ { Hint.at_ms = 0.0; disk = 0; action = Hint.Set_rpm 3000 } ] in
  let sink, collected = Dp_obs.Sink.collect () in
  let r = Engine.simulate ~obs:sink ~hints ~disks:1 (Policy.drpm ~proactive:true ()) reqs in
  check Alcotest.int "no speed change" 0 r.Engine.per_disk.(0).Engine.speed_changes;
  check Alcotest.int "no Hint_exec" 0
    (List.length
       (List.filter (function Dp_obs.Event.Hint_exec _ -> true | _ -> false) (collected ())))

let test_rate_zero_with_hints () =
  let r2 = { (req ~think:30_000.0 ~lba:(1 lsl 30) ()) with Request.arrival_ms = 30_010.0 } in
  let reqs = [ req ~think:10.0 (); r2 ] in
  let hints = [ { Hint.at_ms = 30_000.0; disk = 0; action = Hint.Set_rpm 3000 } ] in
  let faults = Fault_model.make ~seed:9 ~rate:0.0 () in
  List.iter
    (fun policy ->
      check Alcotest.bool (Policy.name policy ^ " hinted rate-0 identical") true
        (simulate_tl ~hints ~disks:1 policy reqs
        = simulate_tl ~hints ~faults ~disks:1 policy reqs))
    [ Policy.tpm ~proactive:true (); Policy.drpm ~proactive:true () ]

(* --- observability: the event stream is exact --- *)

module Sink = Dp_obs.Sink

let prop_events_reproduce_stats =
  (* Summing the Power events' charges per state reproduces the engine's
     per-disk accounting with exact float equality: emission follows the
     stat updates operation for operation, so the same additions happen
     in the same order.  Service/energy events agree likewise. *)
  qtest ~count:40 "Engine: obs event charges sum to the per-disk stats exactly" faulted_gen
    (fun (reqs, seed, rate) ->
      let faults = Fault_model.make ~seed ~rate () in
      List.for_all
        (fun policy ->
          let sink, collected = Sink.collect () in
          let r = Engine.simulate ~obs:sink ~knobs:(faulty faults) ~disks:3 policy reqs in
          let events = collected () in
          Array.for_all
               (fun (d : Engine.disk_stats) ->
                 let busy = ref 0.0 and idle = ref 0.0 and standby = ref 0.0 in
                 let trans = ref 0.0 and energy = ref 0.0 and served = ref 0 in
                 List.iter
                   (function
                     | Obs_event.Power p when p.disk = d.Engine.disk -> (
                         energy := !energy +. p.energy_j;
                         match p.state with
                         | Obs_event.Active -> busy := !busy +. p.charge_ms
                         | Obs_event.Idle _ -> idle := !idle +. p.charge_ms
                         | Obs_event.Standby -> standby := !standby +. p.charge_ms
                         | Obs_event.Transition -> trans := !trans +. p.charge_ms)
                     | Obs_event.Service s when s.disk = d.Engine.disk -> incr served
                     | _ -> ())
                   events;
                 !busy = d.Engine.busy_ms && !idle = d.Engine.idle_ms
                 && !standby = d.Engine.standby_ms
                 && !trans = d.Engine.transition_ms
                 && !energy = d.Engine.energy_j
                 && !served = d.Engine.requests)
               r.Engine.per_disk)
        all_policies)

let test_wear_fraction () =
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ] in
  let r = Engine.simulate ~disks:1 Policy.default_tpm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.int "one start-stop cycle" 1 d.Engine.spin_downs;
  check (Alcotest.float 1e-12) "wear = downs / rated"
    (1.0 /. float_of_int m.Disk_model.rated_start_stop_cycles)
    (Engine.wear_fraction m d);
  check Alcotest.int "rated budget is 50k" 50_000 m.Disk_model.rated_start_stop_cycles

let test_backoff_bounded () =
  let rc = Policy.retry ~max_attempts:10 ~backoff_base_ms:5.0 ~backoff_cap_ms:80.0 () in
  check (Alcotest.float 1e-9) "first" 5.0 (Policy.backoff_ms rc ~attempt:1);
  check (Alcotest.float 1e-9) "doubles" 10.0 (Policy.backoff_ms rc ~attempt:2);
  check (Alcotest.float 1e-9) "capped" 80.0 (Policy.backoff_ms rc ~attempt:9);
  (match Policy.retry ~max_attempts:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_attempts=0 must be rejected");
  (* reactive_fallback strips proactivity and nothing else. *)
  match Policy.reactive_fallback (Policy.drpm ~proactive:true ~min_rpm:9000 ()) with
  | Policy.Drpm c ->
      check Alcotest.bool "proactive cleared" false c.Policy.proactive;
      check Alcotest.(option int) "floor kept" (Some 9000) c.Policy.min_rpm
  | _ -> Alcotest.fail "fallback changed the policy family"

(* --- sharding: component-parallel runs reproduce serial byte for byte --- *)

let shard_counts = [ 1; 2; 4; 8 ]

(* Four procs touring four disjoint disk pairs across three segments:
   every segment splits into four shard groups, so shards > 1 actually
   exercises the parallel path (a single-component trace would just run
   serially whatever the cap says). *)
let disjoint_trace =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun s ->
          List.init 6 (fun i ->
              req ~proc:p ~seg:s
                ~disk:((2 * p) + (i mod 2))
                ~lba:(i * 7919 * 4096)
                ~think:(float_of_int ((p + 1) * 911 * (i + 1) mod 20_000))
                ()))
        [ 0; 1; 2 ])
    [ 0; 1; 2; 3 ]

let test_shards_identity () =
  (* Without a sink the groups run unbuffered; with the recorder their
     events are re-merged into the serial order. *)
  let run ?shards policy =
    ( Engine.simulate ?shards ~disks:8 policy disjoint_trace,
      simulate_tl ?shards ~disks:8 policy disjoint_trace )
  in
  List.iter
    (fun policy ->
      let serial = run policy in
      List.iter
        (fun shards ->
          let sharded = run ~shards policy in
          check Alcotest.bool
            (Printf.sprintf "%s --shards %d = serial" (Policy.name policy) shards)
            true (serial = sharded))
        shard_counts)
    all_policies

let test_shards_identity_faulted () =
  (* Transient faults, media decay and a deadline with failover, across
     every shard count.  Each case arms the repair domain, which keeps a
     run with a live sink in one group, so the runs here have none. *)
  let cases =
    [
      (Some (Fault_model.make ~seed:7 ~rate:0.05 ()), None);
      ( Some (Fault_model.make ~classes:[ Fault_model.Media_decay ] ~seed:11 ~rate:0.3 ()),
        Some 500.0 );
      (None, Some 200.0);
    ]
  in
  List.iter
    (fun (faults, deadline_ms) ->
      let serial =
        Engine.simulate ~knobs:{ Knobs.none with faults; deadline_ms } ~disks:8 Policy.default_tpm disjoint_trace
      in
      List.iter
        (fun shards ->
          let sharded =
            Engine.simulate ~knobs:{ Knobs.none with faults; deadline_ms } ~shards ~disks:8 Policy.default_tpm
              disjoint_trace
          in
          check Alcotest.bool
            (Printf.sprintf "faulted --shards %d = serial" shards)
            true (serial = sharded))
        shard_counts)
    cases

let test_shards_obs_order () =
  (* The re-merged event stream must replay the serial emission order
     exactly — same events, same order, not just the same multiset. *)
  let record shards =
    let sink, events = Dp_obs.Sink.collect () in
    let r =
      Engine.simulate ~obs:sink ?shards ~disks:8 (Policy.tpm ~proactive:true ())
        disjoint_trace
    in
    (r, events ())
  in
  let r1, e1 = record None in
  check Alcotest.bool "events recorded" true (e1 <> []);
  List.iter
    (fun n ->
      let r2, e2 = record (Some n) in
      check Alcotest.bool (Printf.sprintf "result identical at shards %d" n) true (r1 = r2);
      check Alcotest.bool
        (Printf.sprintf "event stream identical at shards %d" n)
        true (e1 = e2))
    shard_counts

let test_shards_validation () =
  match Engine.simulate ~shards:0 ~disks:1 Policy.No_pm [ req ~think:1.0 () ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards=0 must be rejected"

(* Random multi-component traces (proc p owns disk p) under random
   fault seeds: sharded and serial runs stay structurally equal.  The
   faults arm the repair domain, so the runs have no sink, which would
   keep them in one group. *)
let sharded_gen =
  QCheck2.Gen.(
    triple
      (list_size (int_range 1 30)
         (map3
            (fun think pd i ->
              req ~proc:pd ~seg:(i mod 3) ~disk:pd ~lba:(i * 7919 * 4096)
                ~think:(float_of_int think) ())
            (int_range 1 30_000) (int_range 0 2) (int_range 0 50)))
      (int_range 0 10_000)
      (map (fun r -> float_of_int r /. 100.0) (int_range 0 40)))

let prop_shards_identity =
  qtest ~count:30 "Engine: sharded faulted runs byte-identical to serial" sharded_gen
    (fun (reqs, seed, rate) ->
      let faults = Fault_model.make ~seed ~rate () in
      List.for_all
        (fun policy ->
          let serial = Engine.simulate ~knobs:(faulty faults) ~disks:3 policy reqs in
          List.for_all
            (fun shards -> serial = Engine.simulate ~knobs:(faulty faults) ~shards ~disks:3 policy reqs)
            [ 2; 8 ])
        all_policies)

(* --- per-request kernels --- *)

(* A drive whose speed ladder from [rpm_min] (2,000 .. 9,500) misses
   both [rpm_max] and every speed the engine shifts through from the top
   (10,000, 8,500, .. 2,500), so its prices come from both the tables
   and the spare slot. *)
let odd_model =
  {
    m with
    Disk_model.name = "odd ladder";
    rpm_max = 10_000;
    rpm_min = 2_000;
    rpm_step = 1_500;
    seek_ms = 4.7;
    rotation_ms = 3.0;
    transfer_mb_s = 37.5;
    power_active_w = 11.1;
    power_idle_w = 8.3;
    power_standby_w = 1.9;
  }

let raised f = match f () with _ -> None | exception Invalid_argument msg -> Some msg

(* The engine's per-run prices are [Disk_model]'s figures bit for bit, at
   every speed either ladder reaches, for every seek class and a sweep
   of sizes; a speed the model refuses raises its message. *)
let test_prices_bitwise () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (model : Disk_model.t) ->
      let px = Engine.prices model in
      let engine_ladder =
        List.init 8 (fun k -> model.rpm_max - (k * model.rpm_step))
        |> List.filter (fun r -> r >= model.rpm_min)
      in
      let same what a b =
        check Alcotest.int64 (Printf.sprintf "%s: %s" model.name what) (bits a) (bits b)
      in
      List.iter
        (fun rpm ->
          same (Printf.sprintf "idle at %d" rpm) (Disk_model.idle_power_w model ~rpm)
            (Engine.idle_w px rpm);
          same (Printf.sprintf "active at %d" rpm) (Disk_model.active_power_w model ~rpm)
            (Engine.active_w px rpm);
          List.iter
            (fun rpm_to ->
              same
                (Printf.sprintf "transition %d -> %d" rpm rpm_to)
                (Disk_model.drpm_transition_j model ~rpm_from:rpm ~rpm_to)
                (Engine.transition_j px ~rpm_from:rpm ~rpm_to))
            engine_ladder;
          List.iter
            (fun seek_distance ->
              List.iter
                (fun bytes ->
                  same
                    (Printf.sprintf "service at %d, seek %d, %d bytes" rpm seek_distance
                       bytes)
                    (Disk_model.service_ms ~seek_distance model ~rpm ~bytes)
                    (Engine.service_price px ~seek_distance ~rpm ~bytes))
                [ 0; 1; 512; 4096; 65_536; 1_000_000; 3 * 1024 * 1024; 64 * 1024 * 1024 ])
            [
              0; 1; -1; 4096; 32 * 1024 * 1024; (32 * 1024 * 1024) + 1; -(64 * 1024 * 1024);
              max_int;
            ])
        (Disk_model.rpm_levels model @ engine_ladder);
      List.iter
        (fun rpm ->
          let want = raised (fun () -> Disk_model.idle_power_w model ~rpm) in
          check Alcotest.bool "the model refuses it" true (want <> None);
          check Alcotest.(option string) "idle: the model's message" want
            (raised (fun () -> Engine.idle_w px rpm));
          check Alcotest.(option string) "active: the model's message" want
            (raised (fun () -> Engine.active_w px rpm));
          check Alcotest.(option string) "service: the model's message" want
            (raised (fun () -> Engine.service_price px ~seek_distance:0 ~rpm ~bytes:4096)))
        [ model.rpm_max + model.rpm_step; model.rpm_min - 1; 0 ])
    [ m; odd_model ]

(* A trace of 12,000 requests from 4 processors over 8 disks: runs of
   sequential accesses with short think times, and every 40th request
   of a processor after a long one, so TPM spins disks down and DRPM
   shifts their speed. *)
let kernel_trace () =
  let b = Dp_trace.Trace.Builder.create 12_000 in
  let clocks = Array.make 4 0.0 in
  for i = 0 to 11_999 do
    let proc = i mod 4 and k = i / 4 in
    let think = if k mod 40 = 39 then 25_000.0 else 0.5 +. float_of_int (k mod 3) in
    clocks.(proc) <- clocks.(proc) +. think;
    let disk = ((k / 10) + proc) mod 8 in
    let lba = if k mod 17 = 0 then k * 1_048_576 else k * 65_536 in
    Dp_trace.Trace.Builder.add b ~arrival:clocks.(proc) ~think ~seg:(k / 1000) ~address:lba
      ~lba ~size:65_536
      ~mode:(if k mod 5 = 0 then Ir.Write else Ir.Read)
      ~proc ~disk
  done;
  Dp_trace.Trace.Builder.finish b

(* Under the null sink a fault-free replay boxes nothing per request:
   its per-request path reads the run's price tables and keeps its
   times unboxed.  The minor-word count of a run in one domain is
   deterministic: about 2.1 words a request, the issue heap's boxed key
   and the per-run setup.  A boxed float coming back on the per-request
   path adds 2 words a request and fails the bound of 3.  Nine runs: the
   kernel trace, and FFT's original columns at 1 and 4 processors (the
   trace dpcc replays), under each policy. *)
let test_null_sink_alloc () =
  let module Pipeline = Dp_pipeline.Pipeline in
  let ctx = Pipeline.load "app:FFT" in
  let fft procs = (Pipeline.columns ctx ~procs Pipeline.Original, Pipeline.disks ctx) in
  List.iter
    (fun (name, (t, disks)) ->
      let n = float_of_int (Dp_trace.Trace.length t) in
      List.iter
        (fun policy ->
          let run () = ignore (Sys.opaque_identity (Engine.replay ~disks policy t)) in
          run ();
          let w0 = Gc.minor_words () in
          run ();
          let per_request = (Gc.minor_words () -. w0) /. n in
          if per_request > 3.0 then
            Alcotest.failf "%s, %s: %.2f minor words per request (bound 3)" name
              (Policy.name policy) per_request)
        [ Policy.No_pm; Policy.default_tpm; Policy.default_drpm ])
    [
      ("kernel trace", (kernel_trace (), 8));
      ("FFT, 1 processor", fft 1);
      ("FFT, 4 processors", fft 4);
    ]

(* --- the conservation recorder --- *)

let power ?charge state start stop energy =
  Obs_event.Power
    {
      disk = 0;
      state;
      start_ms = start;
      stop_ms = stop;
      charge_ms = Option.value charge ~default:(stop -. start);
      energy_j = energy;
    }

let decision at = Obs_event.Decision { disk = 0; at_ms = at; decision = "test" }

(* One disk's hand-built timeline: 10 ms busy, 20 ms idle, 10 ms standby
   and a 1 ms transition, with a decision at each end of the idle
   window; and a result whose stats say exactly that. *)
let hand_stream =
  [
    power Obs_event.Active 0.0 10.0 0.135;
    decision 10.0;
    power (Obs_event.Idle 15000) 10.0 30.0 0.204;
    decision 30.0;
    power Obs_event.Standby 30.0 40.0 0.025;
    power Obs_event.Transition 40.0 41.0 0.0135;
  ]

let hand_result =
  let r = Engine.simulate ~disks:1 Policy.No_pm [ req ~think:1.0 () ] in
  let energy_j = 0.135 +. 0.204 +. 0.025 +. 0.0135 in
  let d =
    {
      r.Engine.per_disk.(0) with
      Engine.energy_j;
      busy_ms = 10.0;
      idle_ms = 20.0;
      standby_ms = 10.0;
      transition_ms = 1.0;
    }
  in
  { r with Engine.per_disk = [| d |]; energy_j }

(* The findings of a hand-built stream against a result. *)
let recorded ?(result = hand_result) stream =
  let sink, finish = Engine.recorder ~disks:1 () in
  List.iter (Sink.emit sink) stream;
  finish result

let identities findings =
  List.sort_uniq String.compare (List.map (fun (f : Engine.finding) -> f.identity) findings)

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_recorder_defects () =
  let fires name ?result want ~mentions stream =
    let found = recorded ?result stream in
    check Alcotest.(list string) name want (identities found);
    check Alcotest.bool (name ^ ": the detail says what broke") true
      (List.exists (fun (f : Engine.finding) -> contains ~needle:mentions f.detail) found)
  in
  let green name stream =
    check Alcotest.(list string) name [] (identities (recorded stream))
  in
  green "a clean stream" hand_stream;
  let with_idle ?charge ?(energy = 0.204) () =
    List.map
      (function
        | Obs_event.Power { state = Obs_event.Idle _; _ } ->
            power ?charge (Obs_event.Idle 15000) 10.0 30.0 energy
        | ev -> ev)
      hand_stream
  in
  (* A skew of 1e-12 relative is rounding, not a defect. *)
  green "a skew inside the tolerance"
    (with_idle ~energy:(0.204 +. 1e-12) ~charge:(20.0 +. 1e-12) ());
  (* A span with neither duration nor energy covers nothing: out of
     place, it breaks no contiguity. *)
  green "an empty span is skipped"
    (List.hd hand_stream
    :: power ~charge:0.0 Obs_event.Active 5.0 5.0 0.0
    :: List.tl hand_stream);
  fires "a gap between spans" [ "conservation" ] ~mentions:"gap"
    (List.map
       (function
         | Obs_event.Power { state; start_ms; stop_ms; energy_j; _ } when start_ms >= 10.0 ->
             power state (start_ms +. 2.0) (stop_ms +. 2.0) energy_j
         | ev -> ev)
       hand_stream);
  fires "a span that runs backwards" [ "conservation" ] ~mentions:"backwards"
    (List.map
       (function
         | Obs_event.Power { state = Obs_event.Transition; _ } ->
             power ~charge:1.0 Obs_event.Transition 40.0 39.5 0.0135
         | ev -> ev)
       hand_stream);
  fires "a skewed span energy" [ "energy-conservation" ] ~mentions:"power spans"
    (with_idle ~energy:(0.204 +. 1e-3) ());
  fires "a skewed per-state charge" [ "charge-accounting" ] ~mentions:"idle spans"
    (with_idle ~charge:(20.0 +. 1e-3) ());
  fires "an out-of-order event within one category" [ "monotone-time" ]
    ~mentions:"category-4"
    (List.map
       (function
         | Obs_event.Decision { at_ms = 10.0; _ } -> decision 30.0
         | Obs_event.Decision _ -> decision 10.0
         | ev -> ev)
       hand_stream);
  (* Categories keep their own clocks: a decision stamped before the
     span that precedes it in the stream is no defect. *)
  green "an earlier stamp in another category"
    (List.concat_map
       (function
         | Obs_event.Power { state = Obs_event.Standby; _ } as ev -> [ ev; decision 20.0 ]
         | Obs_event.Decision { at_ms = 30.0; _ } -> []
         | ev -> [ ev ])
       hand_stream);
  fires "a result whose disks do not fold to its total" [ "conservation" ]
    ~mentions:"per-disk"
    ~result:{ hand_result with Engine.energy_j = hand_result.Engine.energy_j +. 1.0 }
    hand_stream;
  match Engine.recorder ~disks:0 () with
  | _ -> Alcotest.fail "a recorder of no disk"
  | exception Invalid_argument _ -> ()

(* Real runs are green under every policy, with faults of every class, a
   scrub budget, a spare override and a deadline, so rebuilds, failovers
   and reconstructions all charge spans; and split into shard groups
   when the repair domain is off. *)
let test_recorder_green_on_runs () =
  let reqs =
    List.init 240 (fun i ->
        req ~proc:(i mod 3) ~seg:(i / 120) ~disk:(i * 7 mod 4) ~lba:(i * 7919 * 4096)
          ~think:(if i mod 9 = 8 then 30_000.0 else float_of_int (1 + (i mod 5)))
          ())
  in
  let faults = Fault_model.make ~seed:5 ~rate:0.4 () in
  let repair =
    Dp_repair.Repair.config ~scrub_budget_ms:40.0 ~fail_threshold:4 ~surface_blocks:512 ()
  in
  let armed =
    { (faulty faults) with repair = Some repair; spare = Some 3; deadline_ms = Some 50.0 }
  in
  let runs = ref 0 and failovers = ref 0 and failures = ref 0 and scrubbed = ref 0 in
  List.iter
    (fun policy ->
      List.iter
        (fun (what, knobs, shards) ->
          let r, findings = simulate_checked ~knobs ?shards ~disks:4 policy reqs in
          incr runs;
          Array.iter
            (fun (d : Engine.disk_stats) ->
              failovers := !failovers + d.failovers;
              failures := !failures + d.disk_failures;
              scrubbed := !scrubbed + d.scrub_chunks)
            r.Engine.per_disk;
          check
            Alcotest.(list string)
            (Printf.sprintf "%s, %s" (Policy.name policy) what)
            [] findings)
        [
          ("clean", Knobs.none, None);
          ("clean, 4 shards", Knobs.none, Some 4);
          ("faulted", faulty faults, None);
          ("armed", armed, None);
        ])
    (Policy.default_adaptive :: all_policies);
  check Alcotest.int "every policy and knob set ran" 24 !runs;
  check Alcotest.bool "the armed runs failed over, retired disks and scrubbed" true
    (!failovers > 0 && !failures > 0 && !scrubbed > 0)

let suites =
  [
    ( "disksim.kernels",
      [
        Alcotest.test_case "prices are the model's, bit for bit" `Quick test_prices_bitwise;
        Alcotest.test_case "null-sink replay allocates nothing per request" `Quick
          test_null_sink_alloc;
      ] );
    ( "disksim.model",
      [
        Alcotest.test_case "levels" `Quick test_model_levels;
        Alcotest.test_case "service" `Quick test_model_service;
        Alcotest.test_case "power" `Quick test_model_power;
        Alcotest.test_case "transitions" `Quick test_model_transitions;
      ] );
    ( "disksim.engine",
      [
        Alcotest.test_case "base two requests" `Quick test_engine_base_two_requests;
        Alcotest.test_case "queueing" `Quick test_engine_queueing;
        Alcotest.test_case "TPM reactive" `Quick test_engine_tpm_reactive;
        Alcotest.test_case "TPM arrival mid-spin-down" `Quick test_engine_tpm_mid_spin_down;
        Alcotest.test_case "TPM short gap" `Quick test_engine_tpm_short_gap;
        Alcotest.test_case "TPM proactive" `Quick test_engine_tpm_proactive;
        Alcotest.test_case "DRPM downshift" `Quick test_engine_drpm_downshift;
        Alcotest.test_case "DRPM proactive" `Quick test_engine_drpm_proactive;
        Alcotest.test_case "validation" `Quick test_engine_validation;
        Alcotest.test_case "negative proc and seg" `Quick test_engine_negative_ids;
        Alcotest.test_case "issue ties by processor" `Quick test_engine_issue_ties;
        energy_bounds Policy.No_pm;
        energy_bounds Policy.default_tpm;
        energy_bounds Policy.default_drpm;
        energy_bounds (Policy.tpm ~proactive:true ());
        energy_bounds (Policy.drpm ~proactive:true ());
        prop_io_time_consistent;
        prop_proactive_never_slower;
        prop_proactive_drpm_never_slower;
        prop_permutation_invariant;
      ] );
    ( "disksim.policies",
      [
        Alcotest.test_case "names" `Quick test_policy_names;
        Alcotest.test_case "tunables rejected" `Quick test_policy_tunables_rejected;
        Alcotest.test_case "two-speed floor" `Quick test_drpm_two_speed_floor;
        Alcotest.test_case "segment barrier" `Quick test_engine_segments_barrier;
      ] );
    ( "disksim.timeline",
      [
        Alcotest.test_case "recording" `Quick test_timeline_recording;
      ] );
    ( "disksim.faults",
      [
        prop_rate_zero_identity;
        prop_fault_determinism;
        prop_timeline_contiguous;
        prop_energy_conserved;
        prop_faults_terminate;
        Alcotest.test_case "spin-up retries accounted" `Quick test_spin_up_retries_accounted;
        Alcotest.test_case "closed-loop issue" `Quick test_engine_closed_loop;
        Alcotest.test_case "media retries accounted" `Quick test_media_retries_accounted;
        Alcotest.test_case "latency spikes accounted" `Quick test_latency_spikes_accounted;
        Alcotest.test_case "stuck-RPM hinted fallback" `Quick test_stuck_rpm_hinted_fallback;
        Alcotest.test_case "stuck-RPM fallback drops its directives" `Quick
          test_stuck_rpm_fallback_drops_directives;
        Alcotest.test_case "rate zero with hints" `Quick test_rate_zero_with_hints;
        Alcotest.test_case "wear fraction" `Quick test_wear_fraction;
        Alcotest.test_case "retry config" `Quick test_backoff_bounded;
      ] );
    ( "disksim.shards",
      [
        Alcotest.test_case "identity across policies" `Quick test_shards_identity;
        Alcotest.test_case "identity under faults/decay/deadline" `Quick
          test_shards_identity_faulted;
        Alcotest.test_case "obs event order" `Quick test_shards_obs_order;
        Alcotest.test_case "validation" `Quick test_shards_validation;
        prop_shards_identity;
      ] );
    ( "disksim.conservation",
      [
        Alcotest.test_case "the recorder names each defect" `Quick test_recorder_defects;
        Alcotest.test_case "the recorder is green on real runs" `Quick
          test_recorder_green_on_runs;
      ] );
    ( "disksim.obs",
      [
        prop_events_reproduce_stats;
        Alcotest.test_case "empty window logs no hint" `Quick test_empty_window_logs_no_hint;
      ] );
  ]
