(* Tests for the observability subsystem: sinks, metrics, reports,
   exporters, and the pass profiler. *)

module Sink = Dp_obs.Sink
module Event = Dp_obs.Event
module Metrics = Dp_obs.Metrics
module Report = Dp_obs.Report
module Live = Dp_obs.Live
module Tty = Dp_obs.Tty
module Diff = Dp_obs.Diff
module Chrome = Dp_obs.Chrome
module Prof = Dp_obs.Prof
module Fault_model = Dp_faults.Fault_model
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Request = Dp_trace.Request
module Ir = Dp_ir.Ir

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let decision d at s = Event.Decision { disk = d; at_ms = at; decision = s }

let power ?(disk = 0) ?(energy = 0.0) state start stop =
  Event.Power
    { disk; state; start_ms = start; stop_ms = stop; charge_ms = stop -. start; energy_j = energy }

let service ?(disk = 0) ?(lba = 0) ~arrival ~start ~stop () =
  Event.Service
    { disk; proc = 0; arrival_ms = arrival; start_ms = start; stop_ms = stop; lba; bytes = 65536 }

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

(* --- sinks --- *)

let test_null_sink () =
  check Alcotest.bool "disabled" false (Sink.enabled Sink.null);
  Sink.emit Sink.null (decision 0 0.0 "x")

let test_tee_sink () =
  check Alcotest.bool "empty tee is disabled" false (Sink.enabled (Sink.tee []));
  check Alcotest.bool "all-null tee is disabled" false
    (Sink.enabled (Sink.tee [ Sink.null; Sink.null ]));
  let one = Sink.stream ignore in
  check Alcotest.bool "one live member is returned itself" true
    (Sink.tee [ Sink.null; one; Sink.null ] == one);
  let seen = ref [] in
  let member name = Sink.stream (fun e -> seen := (name, Event.time_ms e) :: !seen) in
  let s = Sink.tee [ member "a"; Sink.null; member "b"; member "c" ] in
  check Alcotest.bool "enabled" true (Sink.enabled s);
  Sink.emit s (decision 0 1.0 "x");
  Sink.emit s (decision 0 2.0 "y");
  check
    Alcotest.(list (pair string (float 0.0)))
    "every member sees every event, in list order"
    [ ("a", 1.0); ("b", 1.0); ("c", 1.0); ("a", 2.0); ("b", 2.0); ("c", 2.0) ]
    (List.rev !seen)

let test_stream_sink () =
  let seen = ref [] in
  let s = Sink.stream (fun e -> seen := Event.time_ms e :: !seen) in
  check Alcotest.bool "enabled" true (Sink.enabled s);
  Sink.emit s (decision 0 1.0 "a");
  Sink.emit s (decision 0 2.0 "b");
  check Alcotest.(list (float 0.0)) "callback saw both" [ 2.0; 1.0 ] !seen

let test_collect_sink () =
  let s, events = Sink.collect () in
  check Alcotest.bool "enabled" true (Sink.enabled s);
  check Alcotest.int "empty before traffic" 0 (List.length (events ()));
  for i = 1 to 5 do
    Sink.emit s (decision 0 (float_of_int i) "d")
  done;
  check
    Alcotest.(list (float 0.0))
    "every event, oldest first" [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    (List.map Event.time_ms (events ()))

(* --- metrics --- *)

let test_log_edges () =
  let e = Metrics.log_edges ~lo:1.0 ~hi:1e3 () in
  check Alcotest.int "4 edges" 4 (Array.length e);
  Array.iteri
    (fun i v -> check (Alcotest.float 1e-9) "decade edge" (10.0 ** float_of_int i) v)
    e;
  check Alcotest.int "per_decade 2 doubles them"
    7
    (Array.length (Metrics.log_edges ~per_decade:2 ~lo:1.0 ~hi:1e3 ()))

let test_histogram_observe () =
  let h = Metrics.histogram ~edges:[| 1.0; 10.0; 100.0 |] "t" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 5.0; 50.0; 5000.0 ];
  check Alcotest.(list int) "bucketed" [ 1; 2; 1; 1 ] (Array.to_list h.Metrics.counts);
  check Alcotest.int "n" 5 h.Metrics.n;
  check (Alcotest.float 1e-9) "sum" 5060.5 h.Metrics.sum;
  check (Alcotest.float 1e-9) "max" 5000.0 h.Metrics.vmax;
  check (Alcotest.float 1e-9) "mean" (5060.5 /. 5.0) (Metrics.mean h);
  (* Quantiles resolve to bucket upper edges (vmax for overflow). *)
  check (Alcotest.float 1e-9) "median" 10.0 (Metrics.quantile h 0.5);
  check (Alcotest.float 1e-9) "q=1" 5000.0 (Metrics.quantile h 1.0)

(* --- events: JSON wire format --- *)

let test_event_json_escaping () =
  let j = Dp_util.Json.to_compact (Event.to_json (decision 2 1.5 "a\"b\\c\nd")) in
  check Alcotest.bool "quote escaped" true
    (contains ~needle:{|a\"b\\c\nd|} j);
  check Alcotest.bool "no raw newline" false (String.contains j '\n');
  let j2 =
    Dp_util.Json.to_compact
      (Event.to_json (Event.Fault { disk = 0; at_ms = 1.0; kind = "x"; cost_ms = Float.nan }))
  in
  check Alcotest.bool "NaN becomes null" true
    (contains ~needle:"\"cost_ms\":null" j2)

let test_event_accessors () =
  check Alcotest.int "disk" 3 (Event.disk (service ~disk:3 ~arrival:1.0 ~start:2.0 ~stop:3.0 ()));
  check (Alcotest.float 0.0) "span start is the timestamp" 2.0
    (Event.time_ms (power Event.Standby 2.0 9.0));
  check Alcotest.string "track label" "IDLE@6000" (Event.track_name (Event.Idle 6000));
  check Alcotest.string "state name" "standby" (Event.state_name Event.Standby)

(* --- report --- *)

let test_report_of_events () =
  (* Hand-built disk-0 story: serve 10 ms, idle 1000 ms, standby 500 ms
     (entered via a 10 ms transition), spin up 20 ms, serve again. *)
  let events =
    [
      power Event.Active ~energy:0.135 0.0 10.0;
      service ~arrival:0.0 ~start:0.0 ~stop:10.0 ();
      power (Event.Idle 15000) ~energy:10.2 10.0 1010.0;
      power Event.Transition 1010.0 1020.0;
      power Event.Standby 1020.0 1520.0;
      power Event.Transition 1520.0 1540.0;
      power Event.Active ~energy:0.135 1540.0 1550.0;
      service ~arrival:1535.0 ~start:1540.0 ~stop:1550.0 ();
      Event.Hint_exec { disk = 0; at_ms = 1520.0; action = "pre-spin-up" };
      Event.Fault { disk = 0; at_ms = 1540.0; kind = "latency-spike"; cost_ms = 1.0 };
      decision 0 1010.0 "tpm:threshold-spin-down";
    ]
  in
  let r = (Report.of_events ~disks:1 events).(0) in
  check Alcotest.int "requests" 2 r.Report.requests;
  check (Alcotest.float 1e-9) "busy" 20.0 r.Report.busy_ms;
  check (Alcotest.float 1e-9) "idle" 1000.0 r.Report.idle_ms;
  check (Alcotest.float 1e-9) "standby" 500.0 r.Report.standby_ms;
  check (Alcotest.float 1e-9) "transition" 30.0 r.Report.transition_ms;
  check (Alcotest.float 1e-9) "energy" (10.2 +. 0.27) r.Report.energy_j;
  check Alcotest.int "hints" 1 r.Report.hints;
  check Alcotest.int "faults" 1 r.Report.faults;
  check Alcotest.int "decisions" 1 r.Report.decisions;
  (* One gap: idle at 10 through the spin-up's end at 1540. *)
  check Alcotest.int "one idle gap" 1 r.Report.idle_gap_ms.Metrics.n;
  check (Alcotest.float 1e-9) "gap length" 1530.0 r.Report.idle_gap_ms.Metrics.sum;
  check Alcotest.int "one standby stay" 1 r.Report.standby_residency_ms.Metrics.n;
  check (Alcotest.float 1e-9) "residency" 500.0 r.Report.standby_residency_ms.Metrics.sum;
  (* Responses: 10 and 15 ms (second waited 5 ms for the spin-up). *)
  check Alcotest.int "responses" 2 r.Report.response_ms.Metrics.n;
  check (Alcotest.float 1e-9) "response sum" 25.0 r.Report.response_ms.Metrics.sum

let test_report_jsonl () =
  let events = [ power Event.Active 0.0 10.0; service ~arrival:0.0 ~start:0.0 ~stop:10.0 () ] in
  let lines =
    String.split_on_char '\n' (String.trim (Report.jsonl (Report.of_events ~disks:2 events)))
  in
  check Alcotest.int "one line per disk" 2 (List.length lines);
  check Alcotest.bool "has histograms" true
    (contains ~needle:"\"idle_gaps\":{\"edges\":" (List.hd lines))

let test_report_percentile_edges () =
  (* A disk that served nothing has an all-zero quantile function... *)
  let r0 = (Report.of_events ~disks:1 []).(0) in
  List.iter
    (fun q ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "empty q=%g" q)
        0.0
        (Metrics.quantile r0.Report.response_ms q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* ...and a single response answers every quantile with its bucket. *)
  let r1 =
    (Report.of_events ~disks:1 [ service ~arrival:0.0 ~start:0.0 ~stop:7.0 () ]).(0)
  in
  let bucket = Metrics.quantile r1.Report.response_ms 0.5 in
  check Alcotest.bool "single-event bucket covers the response" true (bucket >= 7.0);
  List.iter
    (fun q ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "one-event q=%g" q)
        bucket
        (Metrics.quantile r1.Report.response_ms q))
    [ 0.01; 0.5; 0.99; 1.0 ]

let test_report_builder_incremental () =
  (* of_events is the recorder fed from a list; the recorder folds the
     run one event at a time. *)
  let events =
    [
      power Event.Active ~energy:0.1 0.0 10.0;
      service ~arrival:0.0 ~start:0.0 ~stop:10.0 ();
      power (Event.Idle 15000) ~energy:5.0 10.0 1010.0;
      power Event.Standby 1010.0 2010.0;
      Event.Hint_exec { disk = 0; at_ms = 1000.0; action = "spin-down" };
    ]
  in
  let sink, finish = Report.recorder ~disks:1 in
  List.iter (Sink.emit sink) events;
  let inc = (finish ()).(0) in
  let batch = (Report.of_events ~disks:1 events).(0) in
  check Alcotest.int "requests agree" batch.Report.requests inc.Report.requests;
  check (Alcotest.float 0.0) "energy agrees" batch.Report.energy_j inc.Report.energy_j;
  check (Alcotest.float 0.0) "standby agrees" batch.Report.standby_ms inc.Report.standby_ms;
  check Alcotest.int "gaps agree" batch.Report.idle_gap_ms.Metrics.n
    inc.Report.idle_gap_ms.Metrics.n;
  check (Alcotest.float 0.0) "gap mass agrees" batch.Report.idle_gap_ms.Metrics.sum
    inc.Report.idle_gap_ms.Metrics.sum;
  check Alcotest.string "jsonl agrees" (Report.jsonl [| batch |]) (Report.jsonl [| inc |])

(* --- live --- *)

(* The hand-built disk-0 story of test_report_of_events, reused. *)
let live_story =
  [
    power Event.Active ~energy:0.135 0.0 10.0;
    service ~arrival:0.0 ~start:0.0 ~stop:10.0 ();
    power (Event.Idle 15000) ~energy:10.2 10.0 1010.0;
    power Event.Transition 1010.0 1020.0;
    power Event.Standby 1020.0 1520.0;
    power Event.Transition 1520.0 1540.0;
    power Event.Active ~energy:0.135 1540.0 1550.0;
    service ~arrival:1535.0 ~start:1540.0 ~stop:1550.0 ();
    Event.Hint_exec { disk = 0; at_ms = 1520.0; action = "pre-spin-up" };
    Event.Fault { disk = 0; at_ms = 1540.0; kind = "latency-spike"; cost_ms = 1.0 };
    Event.Repair { disk = 0; at_ms = 1541.0; op = "remap"; blocks = 1; cost_ms = 2.0 };
    decision 0 1010.0 "tpm:threshold-spin-down";
  ]

let test_live_fold () =
  let t = Live.create ~epoch_ms:100.0 ~disks:1 () in
  List.iter (Live.feed t) live_story;
  let d = (Live.disks t).(0) in
  check Alcotest.bool "ends active" true (d.Live.state = Event.Active);
  check (Alcotest.float 1e-9) "energy" (10.2 +. 0.27) d.Live.energy_j;
  check Alcotest.int "requests" 2 d.Live.requests;
  check Alcotest.int "faults" 1 d.Live.faults;
  check Alcotest.int "repairs" 1 d.Live.repairs;
  check (Alcotest.float 1e-9) "now" 1550.0 (Live.now_ms t);
  check Alcotest.int "events folded" (List.length live_story) (Live.events_seen t);
  (* Residency clock: the active span began at 1540. *)
  check (Alcotest.float 1e-9) "residency" 10.0 (Live.residency_ms t ~disk:0);
  check Alcotest.int "epochs" 15 (Live.epochs_completed t)

let test_live_track () =
  let t = Live.create ~epoch_ms:100.0 ~disks:1 () in
  List.iter (Live.feed t) live_story;
  let track = Bytes.to_string (Live.track_chars t ~disk:0) in
  check Alcotest.int "one char per completed epoch" 15 (String.length track);
  (* Epoch 0 is 10 ms active + 90 ms idle; epochs 1..9 pure idle;
     epoch 10 is 10 idle + 10 transition + 80 standby; 11..14 standby. *)
  check Alcotest.string "dominant states" "iiiiiiiiii....." track;
  (* The ring keeps only the newest [track] epochs. *)
  let small = Live.create ~epoch_ms:100.0 ~track:4 ~disks:1 () in
  List.iter (Live.feed small) live_story;
  check Alcotest.string "ring keeps the tail" "...."
    (Bytes.to_string (Live.track_chars small ~disk:0))

let test_live_window () =
  let t = Live.create ~window:4 ~disks:1 () in
  (* Responses 1..6 ms; the window holds the last four: 3,4,5,6. *)
  for i = 1 to 6 do
    let stop = (float_of_int i *. 1000.0) +. float_of_int i in
    Live.feed t (service ~arrival:(float_of_int i *. 1000.0) ~start:(float_of_int i *. 1000.0) ~stop ())
  done;
  check (Alcotest.float 1e-9) "p50 over window" 4.0 (Live.recent_percentile t ~disk:0 0.5);
  check (Alcotest.float 1e-9) "p100 over window" 6.0 (Live.recent_percentile t ~disk:0 1.0);
  check (Alcotest.float 1e-9) "p1 over window" 3.0 (Live.recent_percentile t ~disk:0 0.01);
  (* EWMA of a constant 1000 ms inter-arrival is 1000 ms -> 1 Hz. *)
  check (Alcotest.float 1e-9) "arrival rate" 1.0 (Live.arrival_rate_hz t ~disk:0);
  check (Alcotest.float 0.0) "no responses yet elsewhere" 0.0
    (Live.recent_percentile (Live.create ~disks:1 ()) ~disk:0 0.5)

let test_live_rejects () =
  (match Live.create ~disks:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disks 0 must be rejected");
  (match Live.create ~epoch_ms:0.0 ~disks:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "epoch 0 must be rejected");
  let t = Live.create ~disks:1 () in
  match Live.feed t (decision 5 0.0 "x") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range disk must be rejected"

(* --- tty --- *)

let test_tty_frame () =
  let t = Live.create ~epoch_ms:100.0 ~disks:1 () in
  List.iter (Live.feed t) live_story;
  let plain = Tty.frame ~mode:Tty.Plain t in
  check Alcotest.string "frames are pure" plain (Tty.frame ~mode:Tty.Plain t);
  check Alcotest.bool "header carries simulated time" true
    (contains ~needle:"t=1.6s" plain);
  check Alcotest.bool "row shows the state" true (contains ~needle:"ACTIVE" plain);
  check Alcotest.bool "row shows the track" true (contains ~needle:"iiiiiiiiii....." plain);
  check Alcotest.bool "plain has no escapes" false (String.contains plain '\x1b');
  let ansi = Tty.frame ~mode:Tty.Ansi t in
  check Alcotest.bool "ansi homes the cursor" true (contains ~needle:"\x1b[H" ansi)

let test_tty_driver () =
  let t = Live.create ~epoch_ms:100.0 ~disks:1 () in
  let frames = ref 0 in
  let buf = Buffer.create 256 in
  let sink, finish =
    Tty.driver ~out:(fun s -> incr frames; Buffer.add_string buf s) t
  in
  List.iter (Sink.emit sink) live_story;
  (* 15 epochs elapse, but epoch crossings cluster inside single spans:
     each crossing event yields exactly one frame. *)
  let mid = !frames in
  check Alcotest.bool "frames emitted on epoch crossings" true (mid > 0 && mid <= 15);
  finish ();
  check Alcotest.int "finish emits the final frame" (mid + 1) !frames;
  check Alcotest.bool "frames accumulate in order" true
    (contains ~needle:"t=1.6s" (Buffer.contents buf))

(* --- diff --- *)

let two_run_artifacts () =
  let run_a =
    [
      power Event.Active ~energy:0.1 0.0 10.0;
      service ~arrival:0.0 ~start:0.0 ~stop:10.0 ();
      power (Event.Idle 15000) ~energy:5.0 10.0 1010.0;
      power Event.Standby 1010.0 2010.0;
    ]
  in
  let run_b =
    [
      power Event.Active ~energy:0.3 0.0 40.0;
      service ~arrival:0.0 ~start:0.0 ~stop:40.0 ();
      power (Event.Idle 15000) ~energy:9.0 40.0 90.0;
      power Event.Active ~energy:0.1 90.0 100.0;
      service ~arrival:85.0 ~start:90.0 ~stop:100.0 ();
    ]
  in
  ( Report.jsonl (Report.of_events ~disks:1 run_a),
    Report.jsonl (Report.of_events ~disks:1 run_b) )

let test_diff_parse_roundtrip () =
  let a, _ = two_run_artifacts () in
  match Diff.parse a with
  | Error e -> Alcotest.fail e
  | Ok [ side ] ->
      check Alcotest.int "disk" 0 side.Diff.disk;
      check Alcotest.int "requests" 1 side.Diff.requests;
      check (Alcotest.float 1e-9) "busy" 10.0 side.Diff.busy_ms;
      check (Alcotest.float 1e-9) "standby" 1000.0 side.Diff.standby_ms;
      check (Alcotest.float 1e-9) "energy" 5.1 side.Diff.energy_j;
      check Alcotest.int "gap count" side.Diff.idle_gaps.Diff.count 1;
      check Alcotest.bool "edges survive" true
        (side.Diff.idle_gaps.Diff.edges = Report.gap_edges)
  | Ok sides -> Alcotest.fail (Printf.sprintf "expected 1 line, got %d" (List.length sides))

let test_diff_self_zero () =
  let a, _ = two_run_artifacts () in
  let sides = Result.get_ok (Diff.parse a) in
  match Diff.diff ~a:sides ~b:sides with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check (Alcotest.float 0.0) "max ks" 0.0 r.Diff.max_ks;
      check (Alcotest.float 0.0) "max emd" 0.0 r.Diff.max_emd;
      List.iter
        (fun (l : Diff.line_diff) ->
          check (Alcotest.float 0.0) "gaps ks" 0.0 l.Diff.gaps.Diff.ks;
          check (Alcotest.float 0.0) "resp emd" 0.0 l.Diff.resp.Diff.emd;
          check (Alcotest.float 0.0) "energy delta" 0.0 l.Diff.d_energy_j;
          check Alcotest.int "request delta" 0 l.Diff.d_requests;
          check (Alcotest.float 0.0) "standby share delta" 0.0 l.Diff.d_standby_share)
        r.Diff.lines;
      check Alcotest.bool "threshold 0 not exceeded" false (Diff.exceeds ~threshold:0.0 r)

let test_diff_shift () =
  let a, b = two_run_artifacts () in
  let sa = Result.get_ok (Diff.parse a) and sb = Result.get_ok (Diff.parse b) in
  match Diff.diff ~a:sa ~b:sb with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check Alcotest.bool "shift detected" true (r.Diff.max_ks > 0.0);
      check Alcotest.bool "tiny threshold exceeded" true (Diff.exceeds ~threshold:1e-6 r);
      check Alcotest.bool "ks <= 1" true (r.Diff.max_ks <= 1.0);
      let l = List.hd r.Diff.lines in
      (* B spun standby down to zero and added a request. *)
      check Alcotest.int "request delta" 1 l.Diff.d_requests;
      check Alcotest.bool "standby share fell" true (l.Diff.d_standby_share < 0.0);
      (* B never reached standby: empty-vs-nonempty residency is maximal. *)
      check (Alcotest.float 0.0) "residency ks maximal" 1.0 l.Diff.residency.Diff.ks;
      let human = Format.asprintf "%a" Diff.pp r in
      check Alcotest.bool "signed deltas" true
        (contains ~needle:"requests +1" human);
      check Alcotest.bool "summary line" true (contains ~needle:"max KS" human);
      let json = Dp_util.Json.to_compact (Diff.to_json r) in
      check Alcotest.bool "json has max_ks" true (contains ~needle:"\"max_ks\":" json);
      check Alcotest.bool "json lines array" true (contains ~needle:"\"lines\":[{" json)

let test_diff_shift_of_edges () =
  let h edges counts =
    {
      Diff.edges;
      counts;
      count = Array.fold_left ( + ) 0 counts;
      sum = 0.0;
      vmax = 0.0;
    }
  in
  let e = [| 1.0; 10.0; 100.0 |] in
  let empty = h e [| 0; 0; 0; 0 |] in
  let s = Diff.shift_of empty empty in
  check (Alcotest.float 0.0) "empty-empty ks" 0.0 s.Diff.ks;
  check (Alcotest.float 0.0) "empty-empty emd" 0.0 s.Diff.emd;
  let full = h e [| 4; 0; 0; 0 |] in
  let s = Diff.shift_of empty full in
  check (Alcotest.float 0.0) "empty-nonempty ks" 1.0 s.Diff.ks;
  check (Alcotest.float 0.0) "empty-nonempty emd" 4.0 s.Diff.emd;
  (* Mass moved one bucket over: KS 1, EMD exactly one bucket. *)
  let shifted = h e [| 0; 4; 0; 0 |] in
  let s = Diff.shift_of full shifted in
  check (Alcotest.float 1e-9) "one-bucket ks" 1.0 s.Diff.ks;
  check (Alcotest.float 1e-9) "one-bucket emd" 1.0 s.Diff.emd

let test_diff_errors () =
  check Alcotest.bool "bad json names the line" true
    (match Diff.parse "{\"disk\":0}\nnot json\n" with
    | Error e -> contains ~needle:"line 1" e || contains ~needle:"line 2" e
    | Ok _ -> false);
  let a, _ = two_run_artifacts () in
  let sides = Result.get_ok (Diff.parse a) in
  (match Diff.diff ~a:sides ~b:[] with
  | Error e -> check Alcotest.bool "count mismatch named" true (contains ~needle:"line counts" e)
  | Ok _ -> Alcotest.fail "line-count mismatch must be an error");
  let other_disk = List.map (fun (s : Diff.side) -> { s with Diff.disk = 3 }) sides in
  (match Diff.diff ~a:sides ~b:other_disk with
  | Error e -> check Alcotest.bool "disk mismatch named" true (contains ~needle:"disk" e)
  | Ok _ -> Alcotest.fail "disk mismatch must be an error");
  let h edges = { Diff.edges; counts = [| 1; 1 |]; count = 2; sum = 0.0; vmax = 0.0 } in
  match Diff.shift_of (h [| 1.0 |]) (h [| 2.0 |]) with
  | exception _ -> ()
  | _ -> Alcotest.fail "mismatched edges must be rejected"

(* --- live vs report: the rolling percentiles agree post hoc --- *)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_live_matches_report =
  (* Whatever a random faulty run emits, the Live aggregator's energy
     and counters at end of run equal those of the post-hoc Report built
     from the same stream. *)
  qtest "Live agrees with post-hoc Report"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 3))
    (fun (seed, rate_idx) ->
      let rate = [| 0.0; 0.01; 0.05; 0.1 |].(rate_idx) in
      let faults =
        if rate = 0.0 then None
        else
          match Fault_model.of_spec (Printf.sprintf "%d:%g:all" seed rate) with
          | Ok f -> Some f
          | Error e -> failwith e
      in
      let reqs =
        List.init 24 (fun i ->
            req ~proc:(i mod 2) ~disk:(i mod 2)
              ~lba:(i * 131 * 1024)
              ~think:(float_of_int (((seed * 7919) + (i * 104729)) mod 70_000))
              ())
      in
      let live = Live.create ~disks:2 () in
      let report, finish = Report.recorder ~disks:2 in
      ignore
        (Engine.simulate
           ~obs:(Sink.tee [ report; Live.sink live ])
           ~knobs:{ Dp_disksim.Knobs.none with faults } ~disks:2 Policy.default_tpm reqs);
      let reports = finish () in
      Array.for_all
        (fun (r : Report.disk_report) ->
          let d = r.Report.disk in
          let dl = (Live.disks live).(d) in
          r.Report.requests = dl.Live.requests
          && r.Report.energy_j = dl.Live.energy_j
          && r.Report.faults = dl.Live.faults
          && r.Report.repairs = dl.Live.repairs
          && r.Report.deadline_misses = dl.Live.deadline_misses)
        reports)

(* --- engine integration and the Chrome exporter --- *)

let sim_events policy reqs =
  let sink, events = Sink.collect () in
  let r = Engine.simulate ~obs:sink ~disks:2 policy reqs in
  (r, events ())

let test_engine_emits () =
  let reqs =
    [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) (); req ~disk:1 ~think:20.0 () ]
  in
  let r, events = sim_events Policy.default_tpm reqs in
  let reports = Report.of_events ~disks:2 events in
  check Alcotest.int "disk 0 served" 2 reports.(0).Report.requests;
  check Alcotest.int "disk 1 served" 1 reports.(1).Report.requests;
  check Alcotest.bool "spin-down decision recorded" true
    (List.exists
       (function Event.Decision d -> d.decision = "tpm:threshold-spin-down" | _ -> false)
       events);
  (* The report's totals agree with the engine's stats. *)
  Array.iter
    (fun (d : Engine.disk_stats) ->
      let rep = reports.(d.Engine.disk) in
      check (Alcotest.float 1e-6) "busy agrees" d.Engine.busy_ms rep.Report.busy_ms;
      check (Alcotest.float 1e-6) "standby agrees" d.Engine.standby_ms rep.Report.standby_ms;
      check (Alcotest.float 1e-6) "energy agrees" d.Engine.energy_j rep.Report.energy_j)
    r.Engine.per_disk

let test_chrome_contiguous () =
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) (); req ~disk:1 ~think:20.0 () ] in
  let r, events = sim_events Policy.default_tpm reqs in
  let make = r.Engine.makespan_ms in
  (* Per-track power spans, clipped as the exporter clips them, must
     tile [0, makespan] exactly. *)
  for d = 0 to 1 do
    let spans =
      List.filter_map
        (function
          | Event.Power p when p.disk = d && Float.min p.stop_ms make > p.start_ms ->
              Some (p.start_ms, Float.min p.stop_ms make)
          | _ -> None)
        events
    in
    check Alcotest.bool "has spans" true (spans <> []);
    let rec walk at = function
      | [] -> check (Alcotest.float 1e-6) "covers makespan" make at
      | (start, stop) :: rest ->
          check (Alcotest.float 1e-6) "contiguous" at start;
          walk stop rest
    in
    walk 0.0 spans
  done;
  let json = Chrome.trace_json ~until_ms:make events in
  check Alcotest.bool "metadata track 0" true
    (contains ~needle:"{\"name\":\"disk 0\"}" json);
  check Alcotest.bool "metadata track 1" true
    (contains ~needle:"{\"name\":\"disk 1\"}" json);
  check Alcotest.bool "standby span present" true
    (contains ~needle:"\"name\":\"STANDBY\"" json);
  check Alcotest.bool "io spans present" true
    (contains ~needle:"\"cat\":\"io\"" json);
  check Alcotest.bool "no NaN leaks" false (contains ~needle:"nan" json)

let test_no_obs_identical () =
  (* The default sink is null: passing it explicitly is the same run. *)
  let reqs = [ req ~think:10.0 (); req ~think:60_000.0 ~lba:(1 lsl 30) () ] in
  List.iter
    (fun policy ->
      check Alcotest.bool (Policy.name policy ^ " unchanged by explicit null") true
        (Engine.simulate ~disks:2 policy reqs
        = Engine.simulate ~obs:Sink.null ~disks:2 policy reqs))
    [ Policy.No_pm; Policy.default_tpm; Policy.default_drpm ]

(* --- profiler --- *)

let test_prof_disabled () =
  Prof.reset ();
  Prof.disable ();
  check Alcotest.int "span still returns" 7 (Prof.span "x" (fun () -> 7));
  Prof.count "x" 3;
  check Alcotest.int "nothing recorded" 0 (List.length (Prof.entries ()))

let test_prof_enabled () =
  Prof.reset ();
  Prof.enable ();
  Fun.protect ~finally:Prof.disable @@ fun () ->
  check Alcotest.int "result threaded" 42 (Prof.span "pass-a" (fun () -> 42));
  ignore (Prof.span "pass-a" (fun () -> Sys.opaque_identity (List.init 100 Fun.id)));
  Prof.count "pass-a" 5;
  (match Prof.span "pass-b" (fun () -> raise Exit) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "exception must propagate");
  let entries = Prof.entries () in
  check Alcotest.int "two entries" 2 (List.length entries);
  let a = List.find (fun e -> e.Prof.p_name = "pass-a") entries in
  check Alcotest.int "calls" 2 a.Prof.calls;
  check Alcotest.int "items" 5 a.Prof.items;
  check Alcotest.bool "time accumulates" true (a.Prof.total_s >= 0.0);
  let b = List.find (fun e -> e.Prof.p_name = "pass-b") entries in
  check Alcotest.int "raising span still counted" 1 b.Prof.calls;
  let table = Format.asprintf "%a" Prof.pp_table () in
  check Alcotest.bool "table lists the pass" true
    (contains ~needle:"pass-a" table)

let suites =
  [
    ( "obs.sink",
      [
        Alcotest.test_case "null" `Quick test_null_sink;
        Alcotest.test_case "tee" `Quick test_tee_sink;
        Alcotest.test_case "stream" `Quick test_stream_sink;
        Alcotest.test_case "collect" `Quick test_collect_sink;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "log edges" `Quick test_log_edges;
        Alcotest.test_case "observe" `Quick test_histogram_observe;
      ] );
    ( "obs.event",
      [
        Alcotest.test_case "json escaping" `Quick test_event_json_escaping;
        Alcotest.test_case "accessors" `Quick test_event_accessors;
      ] );
    ( "obs.report",
      [
        Alcotest.test_case "of_events" `Quick test_report_of_events;
        Alcotest.test_case "jsonl" `Quick test_report_jsonl;
        Alcotest.test_case "percentile edges" `Quick test_report_percentile_edges;
        Alcotest.test_case "incremental builder" `Quick test_report_builder_incremental;
      ] );
    ( "obs.live",
      [
        Alcotest.test_case "fold" `Quick test_live_fold;
        Alcotest.test_case "power-state track" `Quick test_live_track;
        Alcotest.test_case "sliding window" `Quick test_live_window;
        Alcotest.test_case "rejects" `Quick test_live_rejects;
        test_live_matches_report;
      ] );
    ( "obs.tty",
      [
        Alcotest.test_case "frame" `Quick test_tty_frame;
        Alcotest.test_case "driver" `Quick test_tty_driver;
      ] );
    ( "obs.diff",
      [
        Alcotest.test_case "parse roundtrip" `Quick test_diff_parse_roundtrip;
        Alcotest.test_case "self-diff is zero" `Quick test_diff_self_zero;
        Alcotest.test_case "shift detected" `Quick test_diff_shift;
        Alcotest.test_case "ks/emd core" `Quick test_diff_shift_of_edges;
        Alcotest.test_case "errors" `Quick test_diff_errors;
      ] );
    ( "obs.engine",
      [
        Alcotest.test_case "events emitted" `Quick test_engine_emits;
        Alcotest.test_case "chrome spans tile the makespan" `Quick test_chrome_contiguous;
        Alcotest.test_case "explicit null identical" `Quick test_no_obs_identical;
      ] );
    ( "obs.prof",
      [
        Alcotest.test_case "disabled" `Quick test_prof_disabled;
        Alcotest.test_case "enabled" `Quick test_prof_enabled;
      ] );
  ]
