(* Tests for the offline-optimal power scheduler and the compiler hint
   pipeline: per-gap optimality, the energy lower bound sandwich, and
   hint-driven proactive execution. *)

module Disk_model = Dp_disksim.Disk_model
module Policy = Dp_disksim.Policy
module Engine = Dp_disksim.Engine
module Request = Dp_trace.Request
module Hint = Dp_trace.Hint
module Oracle = Dp_oracle.Oracle
module Ir = Dp_ir.Ir

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let m = Disk_model.ultrastar_36z15

let gap ?(start = 0.0) ?(terminal = false) len_s =
  { Oracle.start_ms = start; len_ms = len_s *. 1000.0; terminal }

(* --- best_gap: exact per-gap optima, checked by hand --- *)

let test_best_gap_short () =
  (* 5 s cannot fit the 12.4 s spin round trip: idle at full speed. *)
  let a, e = Oracle.best_gap Oracle.Tpm_space (gap 5.0) in
  check Alcotest.bool "stay idle" true (a = Oracle.Stay_idle);
  check (Alcotest.float 1e-6) "idle energy" (10.2 *. 5.0) e

let test_best_gap_spin_cycle () =
  (* 60 s: spin down (13 J / 1.5 s), standby, spin up (135 J / 10.9 s). *)
  let a, e = Oracle.best_gap Oracle.Tpm_space (gap 60.0) in
  check Alcotest.bool "spin cycle" true (a = Oracle.Spin_cycle);
  check (Alcotest.float 1e-6) "cycle energy"
    (13.0 +. 135.0 +. (2.5 *. (60.0 -. 1.5 -. 10.9)))
    e

let test_best_gap_breakeven () =
  (* The analytic break-even of the cycle-vs-idle tradeoff is ~15.19 s,
     matching the model's tpm_breakeven_s = 15.2. *)
  let a_below, _ = Oracle.best_gap Oracle.Tpm_space (gap 15.0) in
  let a_above, _ = Oracle.best_gap Oracle.Tpm_space (gap 15.4) in
  check Alcotest.bool "below breakeven idles" true (a_below = Oracle.Stay_idle);
  check Alcotest.bool "above breakeven cycles" true (a_above = Oracle.Spin_cycle)

let test_best_gap_terminal () =
  (* A terminal gap never pays the up-leg: cheaper, and beneficial for
     shorter gaps. *)
  let _, e_interior = Oracle.best_gap Oracle.Tpm_space (gap 60.0) in
  let a, e_terminal = Oracle.best_gap Oracle.Tpm_space (gap ~terminal:true 60.0) in
  check Alcotest.bool "terminal still cycles" true (a = Oracle.Spin_cycle);
  check (Alcotest.float 1e-6) "terminal drops spin-up"
    (13.0 +. (2.5 *. (60.0 -. 1.5)))
    e_terminal;
  check Alcotest.bool "terminal cheaper" true (e_terminal < e_interior)

let test_best_gap_drpm_dip () =
  (* A 5 s gap is too short for a spin cycle but fits an RPM dip. *)
  let a, e = Oracle.best_gap Oracle.Drpm_space (gap 5.0) in
  (match a with
  | Oracle.Rpm_dip r ->
      check Alcotest.bool "dips to a real level" true (List.mem r (Disk_model.rpm_levels m))
  | _ -> Alcotest.fail "expected an RPM dip");
  check Alcotest.bool "beats idling" true (e < 10.2 *. 5.0)

let test_best_gap_full_is_min () =
  List.iter
    (fun len ->
      let _, t = Oracle.best_gap Oracle.Tpm_space (gap len) in
      let _, d = Oracle.best_gap Oracle.Drpm_space (gap len) in
      let _, f = Oracle.best_gap Oracle.Full_space (gap len) in
      check (Alcotest.float 1e-9)
        (Printf.sprintf "full = min at %.1f s" len)
        (Float.min t d) f)
    [ 0.5; 5.0; 14.0; 16.0; 60.0; 300.0 ]

let test_schedule_sums () =
  let gaps = [ gap 5.0; gap ~start:20_000.0 60.0; gap ~start:90_000.0 ~terminal:true 30.0 ] in
  let p = Oracle.schedule Oracle.Full_space gaps in
  check Alcotest.int "one step per gap" 3 (List.length p.Oracle.steps);
  let sum =
    List.fold_left (fun acc (s : Oracle.step) -> acc +. s.Oracle.energy_j) 0.0 p.Oracle.steps
  in
  check (Alcotest.float 1e-9) "plan energy is the sum" sum p.Oracle.energy_j

(* --- the lower bound sandwich (the headline property) --- *)

let req ?(proc = 0) ?(disk = 0) ?(lba = 0) ~think () =
  {
    Request.arrival_ms = 0.0;
    think_ms = think;
    seg = 0;
    address = lba;
    lba;
    size = 64 * 1024;
    mode = Ir.Read;
    proc;
    disk;
  }

let trace_gen =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (map2
         (fun think disk -> req ~think:(float_of_int think) ~disk ~lba:(disk * 7919 * 4096) ())
         (int_range 1 30_000) (int_range 0 2)))

let all_policies =
  [
    Policy.No_pm;
    Policy.default_tpm;
    Policy.tpm ~proactive:true ();
    Policy.default_drpm;
    Policy.drpm ~proactive:true ();
    Policy.drpm ~min_rpm:9000 ();
  ]

let prop_sandwich =
  qtest ~count:60 "Oracle: standby floor <= bound <= every policy" trace_gen (fun reqs ->
      let bound = Oracle.lower_bound ~disks:3 reqs in
      let floor = Oracle.standby_floor_j bound.Oracle.base in
      floor <= bound.Oracle.energy_j +. 1e-6
      && List.for_all
           (fun p ->
             let r = Engine.simulate ~disks:3 p reqs in
             bound.Oracle.energy_j <= r.Engine.energy_j +. 1e-6)
           all_policies)

let prop_space_ordering =
  qtest ~count:60 "Oracle: restricted spaces bound their policies" trace_gen (fun reqs ->
      let e space = (Oracle.lower_bound ~space ~disks:3 reqs).Oracle.energy_j in
      let full = e Oracle.Full_space
      and tpm = e Oracle.Tpm_space
      and drpm = e Oracle.Drpm_space in
      (* The full space subsumes both restrictions... *)
      full <= tpm +. 1e-6
      && full <= drpm +. 1e-6
      (* ...and each restricted oracle bounds its own policy family. *)
      && tpm
         <= (Engine.simulate ~disks:3 Policy.default_tpm reqs).Engine.energy_j +. 1e-6
      && tpm
         <= (Engine.simulate ~disks:3 (Policy.tpm ~proactive:true ()) reqs).Engine.energy_j
            +. 1e-6
      && drpm
         <= (Engine.simulate ~disks:3 Policy.default_drpm reqs).Engine.energy_j +. 1e-6)

let test_bound_on_known_trace () =
  (* One disk, one 60 s gap: the bound is the busy floor plus the
     hand-computed optimal spin cycle (terminal tail gap is tiny). *)
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ] in
  let bound = Oracle.lower_bound ~space:Oracle.Tpm_space ~disks:1 reqs in
  let pro = Engine.simulate ~disks:1 (Policy.tpm ~proactive:true ()) reqs in
  check Alcotest.bool "bound <= proactive TPM" true
    (bound.Oracle.energy_j <= pro.Engine.energy_j +. 1e-6);
  (* The proactive policy is optimal here, so the bound is tight. *)
  check (Alcotest.float 1.0) "bound tight on a single long gap" pro.Engine.energy_j
    bound.Oracle.energy_j

(* --- compiler hints --- *)

(* Nominal arrivals for a hand-built trace, whose zero arrivals would
   hide every gap from the hint emitter: each request is stamped with
   the instant the No-PM engine issues it, the [arrival_ms] of its
   Service event.  A processor issues its requests segment by segment,
   each in arrival order, so its k-th Service event is its k-th request
   in that order.  The requests come back in issue order. *)
let nominalize ~disks reqs =
  let by_seg (a : Request.t) (b : Request.t) = Int.compare a.Request.seg b.Request.seg in
  let pending = Hashtbl.create 8 in
  List.iter
    (fun (r : Request.t) ->
      let p = r.Request.proc in
      Hashtbl.replace pending p
        (r :: Option.value ~default:[] (Hashtbl.find_opt pending p)))
    (List.rev (List.stable_sort by_seg (Request.sort_arrival reqs)));
  let issued = ref [] in
  let obs =
    Dp_obs.Sink.stream (function
      | Dp_obs.Event.Service { proc; arrival_ms; _ } -> (
          match Hashtbl.find pending proc with
          | r :: rest ->
              Hashtbl.replace pending proc rest;
              issued := { r with Request.arrival_ms } :: !issued
          | [] -> assert false)
      | _ -> ())
  in
  ignore (Engine.simulate ~obs ~disks Policy.No_pm reqs);
  List.rev !issued

let test_hints_well_formed () =
  let reqs =
    nominalize ~disks:2
      [
        req ~disk:0 ~think:10.0 ();
        req ~disk:1 ~think:10.0 ();
        req ~disk:0 ~think:60_000.0 ~lba:(1 lsl 30) ();
        req ~disk:1 ~think:20_000.0 ~lba:(1 lsl 28) ();
      ]
  in
  let hints = Oracle.hints_of_trace ~disks:2 reqs in
  check Alcotest.bool "nonempty" true (hints <> []);
  let rec nondecreasing = function
    | (a : Hint.t) :: (b :: _ as rest) ->
        a.Hint.at_ms <= b.Hint.at_ms && nondecreasing rest
    | _ -> true
  in
  check Alcotest.bool "sorted by time" true (nondecreasing hints);
  List.iter
    (fun (h : Hint.t) ->
      check Alcotest.bool "disk in range" true (h.Hint.disk >= 0 && h.Hint.disk < 2))
    hints;
  (* Tpm_space hints come as spin-down / pre-spin-up pairs per cycle. *)
  let tpm_hints = Oracle.hints_of_trace ~space:Oracle.Tpm_space ~disks:2 reqs in
  let downs =
    List.length (List.filter (fun h -> h.Hint.action = Hint.Spin_down) tpm_hints)
  in
  let ups =
    List.length
      (List.filter (fun h -> match h.Hint.action with Hint.Pre_spin_up _ -> true | _ -> false)
         tpm_hints)
  in
  check Alcotest.bool "some spin-downs" true (downs > 0);
  (* Terminal gaps spin down without a matching spin-up. *)
  check Alcotest.bool "ups <= downs" true (ups <= downs)

let test_hinted_tpm_no_stall () =
  (* The acceptance scenario: hints let proactive TPM pre-spin the disk,
     eliminating the reactive spin-up stall while saving energy. *)
  let reqs =
    nominalize ~disks:1 [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ]
  in
  let hints = Oracle.hints_of_trace ~space:Oracle.Tpm_space ~disks:1 reqs in
  let base = Engine.simulate ~disks:1 Policy.No_pm reqs in
  let reactive = Engine.simulate ~disks:1 Policy.default_tpm reqs in
  let hinted = Engine.simulate ~hints ~disks:1 (Policy.tpm ~proactive:true ()) reqs in
  check Alcotest.int "hinted spin down" 1 hinted.Engine.per_disk.(0).Engine.spin_downs;
  (* Stall reduction: reactive eats the 10.9 s spin-up in its io time. *)
  check Alcotest.bool "reactive stalls" true (reactive.Engine.io_time_ms > 10_000.0);
  check (Alcotest.float 1e-6) "hinted does not stall" base.Engine.io_time_ms
    hinted.Engine.io_time_ms;
  check Alcotest.bool "hinted saves energy" true
    (hinted.Engine.energy_j < base.Engine.energy_j);
  check Alcotest.bool "hinted <= reactive energy" true
    (hinted.Engine.energy_j <= reactive.Engine.energy_j +. 1e-6)

let test_hinted_drpm_executes_set_rpm () =
  let reqs =
    nominalize ~disks:1 [ req ~think:10.0 (); req ~think:30_000.0 ~lba:(1 lsl 30) () ]
  in
  let hints = Oracle.hints_of_trace ~space:Oracle.Drpm_space ~disks:1 reqs in
  check Alcotest.bool "emits a set-rpm" true
    (List.exists (fun h -> match h.Hint.action with Hint.Set_rpm _ -> true | _ -> false) hints);
  let base = Engine.simulate ~disks:1 Policy.No_pm reqs in
  let hinted = Engine.simulate ~hints ~disks:1 (Policy.drpm ~proactive:true ()) reqs in
  check (Alcotest.float 1e-6) "served at full speed" base.Engine.io_time_ms
    hinted.Engine.io_time_ms;
  check Alcotest.bool "saves energy" true (hinted.Engine.energy_j < base.Engine.energy_j);
  check Alcotest.bool "speed changed" true
    (hinted.Engine.per_disk.(0).Engine.speed_changes >= 2)

let prop_hinted_never_stalls =
  qtest ~count:60 "Oracle hints: hinted proactive never inflates io time" trace_gen
    (fun reqs ->
      let reqs = nominalize ~disks:3 reqs in
      let base = Engine.simulate ~disks:3 Policy.No_pm reqs in
      let tpm_hints = Oracle.hints_of_trace ~space:Oracle.Tpm_space ~disks:3 reqs in
      let drpm_hints = Oracle.hints_of_trace ~space:Oracle.Drpm_space ~disks:3 reqs in
      let t = Engine.simulate ~hints:tpm_hints ~disks:3 (Policy.tpm ~proactive:true ()) reqs in
      let d =
        Engine.simulate ~hints:drpm_hints ~disks:3 (Policy.drpm ~proactive:true ()) reqs
      in
      t.Engine.io_time_ms <= base.Engine.io_time_ms +. 1e-6
      && d.Engine.io_time_ms <= base.Engine.io_time_ms +. 1e-6
      && t.Engine.energy_j <= base.Engine.energy_j +. 1e-6
      && d.Engine.energy_j <= base.Engine.energy_j +. 1e-6)

let prop_nominal_arrivals_physical =
  qtest ~count:60 "Nominal arrivals: energy unchanged under No-PM" trace_gen (fun reqs ->
      let nominal = nominalize ~disks:3 reqs in
      List.length nominal = List.length reqs
      (* The nominal arrivals change nothing physical: the closed-loop
         engine times off think chains, not arrivals. *)
      && Float.abs
           ((Engine.simulate ~disks:3 Policy.No_pm reqs).Engine.energy_j
           -. (Engine.simulate ~disks:3 Policy.No_pm nominal).Engine.energy_j)
         < 1e-6)

(* Several processors over several segments, think times drawn from a
   small set (ties at the same instant are common) and some zero. *)
let multi_proc_gen =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (map4
         (fun think proc seg disk ->
           {
             (req ~proc ~disk ~think:(float_of_int (think * 250)) ~lba:(disk * 7919 * 4096) ())
             with
             Request.seg = seg;
           })
         (int_range 0 8) (int_range 0 4) (int_range 0 2) (int_range 0 2)))

(* The reference/bound split: one reference serves all three spaces,
   each equal field for field — floats bit for bit — to a standalone
   [lower_bound] on the same (shuffled, so unsorted) trace. *)
let bits = Int64.bits_of_float

let same_bound (a : Oracle.bound) (b : Oracle.bound) =
  a.Oracle.space = b.Oracle.space
  && bits a.Oracle.energy_j = bits b.Oracle.energy_j
  && bits a.Oracle.busy_j = bits b.Oracle.busy_j
  && bits a.Oracle.gap_j = bits b.Oracle.gap_j
  && a.Oracle.base = b.Oracle.base

let prop_reference_shared =
  qtest ~count:100 "Oracle: one reference serves every space"
    QCheck2.Gen.(multi_proc_gen >>= shuffle_l)
    (fun reqs ->
      let disks = 3 in
      let trace = Dp_trace.Trace.of_list reqs in
      let r = Oracle.reference ~disks trace in
      List.for_all
        (fun space ->
          same_bound (Oracle.bound ~space r) (Oracle.lower_bound ~space ~disks reqs))
        [ Oracle.Tpm_space; Oracle.Drpm_space; Oracle.Full_space ]
      (* The reference keeps the trace it was given, not a copy. *)
      && r.Oracle.requests == trace)

let test_hint_validation () =
  let reqs = [ req ~think:10.0 () ] in
  let bad = [ { Hint.at_ms = 0.0; disk = 7; action = Hint.Spin_down } ] in
  match Engine.simulate ~hints:bad ~disks:1 Policy.default_tpm reqs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range hint disk must be rejected"

let suites =
  [
    ( "oracle.gaps",
      [
        Alcotest.test_case "short gap idles" `Quick test_best_gap_short;
        Alcotest.test_case "long gap spin-cycles" `Quick test_best_gap_spin_cycle;
        Alcotest.test_case "breakeven boundary" `Quick test_best_gap_breakeven;
        Alcotest.test_case "terminal gap" `Quick test_best_gap_terminal;
        Alcotest.test_case "drpm dip" `Quick test_best_gap_drpm_dip;
        Alcotest.test_case "full space is the min" `Quick test_best_gap_full_is_min;
        Alcotest.test_case "schedule sums steps" `Quick test_schedule_sums;
      ] );
    ( "oracle.bound",
      [
        Alcotest.test_case "tight on a known trace" `Quick test_bound_on_known_trace;
        prop_sandwich;
        prop_space_ordering;
        prop_reference_shared;
      ] );
    ( "oracle.hints",
      [
        Alcotest.test_case "well-formed stream" `Quick test_hints_well_formed;
        Alcotest.test_case "hinted TPM avoids the stall" `Quick test_hinted_tpm_no_stall;
        Alcotest.test_case "hinted DRPM sets speed" `Quick test_hinted_drpm_executes_set_rpm;
        Alcotest.test_case "hint validation" `Quick test_hint_validation;
        prop_hinted_never_stalls;
        prop_nominal_arrivals_physical;
      ] );
  ]
