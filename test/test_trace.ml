(* Tests for trace generation: request timing, think times, segments,
   the text format, and summaries. *)

module Ir = Dp_ir.Ir
module A = Dp_affine.Affine
module Striping = Dp_layout.Striping
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Request = Dp_trace.Request
module Cost_model = Dp_trace.Cost_model
module Generate = Dp_trace.Generate
module Parallelize = Dp_restructure.Parallelize
module Bin = Dp_trace.Bin
module Trace = Dp_trace.Trace

let check = Alcotest.check
let c = A.const
let i = A.var "i"

let program =
  Ir.program
    [ Ir.array_decl ~elem_size:1024 "u" [ 8 ] ]
    [
      Ir.nest 0
        [ Ir.loop "i" (c 0) (c 3) ]
        [ Ir.stmt 0 ~work_cycles:750_000 [ Ir.read "u" [ i ] ] ];
      Ir.nest 1
        [ Ir.loop "i" (c 0) (c 3) ]
        [ Ir.stmt 1 ~work_cycles:750_000 [ Ir.write "u" [ A.add i (c 4) ] ] ];
    ]

let layout =
  Layout.make ~default:(Striping.make ~unit_bytes:1024 ~factor:2 ~start_disk:0) program

let graph = Concrete.build program

let cost = Cost_model.default (* 750 MHz: 750_000 cycles = 1 ms *)

let single_trace () =
  Trace.to_list
    (Generate.trace ~cost layout program graph.Concrete.instances
       (Generate.single_stream ~order:(Concrete.original_order graph)))

let test_cost_model () =
  check (Alcotest.float 1e-9) "compute 750k cycles = 1ms" 1.0
    (Cost_model.compute_ms cost ~cycles:750_000);
  let full = Cost_model.service_ms ~seek_distance:max_int cost ~bytes:0 in
  check (Alcotest.float 1e-9) "0-byte full-seek service" (3.4 +. 2.0) full;
  let seq = Cost_model.service_ms ~seek_distance:0 cost ~bytes:0 in
  check (Alcotest.float 1e-9) "sequential service skips seek" 2.0 seq;
  let near = Cost_model.service_ms ~seek_distance:4096 cost ~bytes:0 in
  check (Alcotest.float 1e-9) "short hop seek is 40%" (0.4 *. 3.4 +. 2.0) near

let test_trace_timing () =
  let reqs = single_trace () in
  check Alcotest.int "8 requests" 8 (List.length reqs);
  let r0 = List.hd reqs in
  check (Alcotest.float 1e-6) "first arrival after compute" 1.0 r0.Request.arrival_ms;
  check (Alcotest.float 1e-6) "first think" 1.0 r0.Request.think_ms;
  check Alcotest.int "element 0 on disk 0" 0 r0.Request.disk;
  (* Arrivals strictly increase for a single processor. *)
  let arrivals = List.map (fun r -> r.Request.arrival_ms) reqs in
  check Alcotest.bool "monotone" true (List.sort compare arrivals = arrivals);
  (* Disk alternates with the element parity. *)
  let disks = List.map (fun r -> r.Request.disk) reqs in
  check Alcotest.(list int) "disks" [ 0; 1; 0; 1; 0; 1; 0; 1 ] disks

let test_trace_roundtrip () =
  let reqs = single_trace () in
  let path = Filename.temp_file "dpower" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Request.save path reqs;
      let back =
        match Bin.load_result path with
        | Ok (back, [], None, `Text) -> Trace.to_list back
        | Ok _ -> Alcotest.fail "a requests-only text file loaded hints or faults"
        | Error e -> Alcotest.fail (Request.load_error_to_string e)
      in
      check Alcotest.int "same count" (List.length reqs) (List.length back);
      List.iter2
        (fun (a : Request.t) (b : Request.t) ->
          check Alcotest.int "address" a.address b.address;
          check Alcotest.int "lba" a.lba b.lba;
          check Alcotest.int "disk" a.disk b.disk;
          check Alcotest.int "seg" a.seg b.seg;
          check Alcotest.bool "mode" true (a.mode = b.mode);
          check (Alcotest.float 1e-3) "arrival" a.arrival_ms b.arrival_ms;
          check (Alcotest.float 1e-3) "think" a.think_ms b.think_ms)
        reqs back)

let test_trace_malformed () =
  (match Request.of_string ~file:"t" "# comment\n\n" with
  | Ok ([], [], None) -> ()
  | _ -> Alcotest.fail "comments and blanks ignored");
  match Request.of_string ~file:"t" "1.0 2.0 0 nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an Error on a malformed line"

(* --- the hint stream riding in the trace file --- *)

module Hint = Dp_trace.Hint

let some_hints =
  [
    { Hint.at_ms = 10.0; disk = 0; action = Hint.Spin_down };
    { Hint.at_ms = 2_500.25; disk = 1; action = Hint.Pre_spin_up 10_900.0 };
    { Hint.at_ms = 40_000.0; disk = 0; action = Hint.Set_rpm 9000 };
  ]

let test_hint_roundtrip () =
  let reqs = single_trace () in
  let path = Filename.temp_file "dpower" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Request.save ~hints:some_hints path reqs;
      let back_reqs, back_hints =
        match Bin.load_result path with
        | Ok (trace, hints, None, _) -> (Trace.to_list trace, hints)
        | Ok (_, _, Some _, _) -> Alcotest.fail "no fault line was saved"
        | Error e -> Alcotest.fail (Request.load_error_to_string e)
      in
      check Alcotest.int "requests preserved" (List.length reqs) (List.length back_reqs);
      check Alcotest.int "hints preserved" (List.length some_hints) (List.length back_hints);
      List.iter2
        (fun (a : Hint.t) (b : Hint.t) ->
          check (Alcotest.float 1e-3) "hint time" a.Hint.at_ms b.Hint.at_ms;
          check Alcotest.int "hint disk" a.Hint.disk b.Hint.disk;
          match (a.Hint.action, b.Hint.action) with
          | Hint.Spin_down, Hint.Spin_down -> ()
          | Hint.Pre_spin_up la, Hint.Pre_spin_up lb ->
              check (Alcotest.float 1e-3) "lead" la lb
          | Hint.Set_rpm ra, Hint.Set_rpm rb -> check Alcotest.int "rpm" ra rb
          | _ -> Alcotest.fail "hint action changed across the roundtrip")
        (List.sort Hint.compare_at some_hints)
        back_hints)

let test_hint_malformed () =
  (match Request.of_string ~file:"t" "H 1.0 0 D" with
  | Ok ([], [ h ], None) ->
      check Alcotest.bool "spin-down parsed" true (h.Hint.action = Hint.Spin_down)
  | _ -> Alcotest.fail "expected one hint");
  List.iter
    (fun line ->
      match Request.of_string ~file:"t" line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "expected an Error on %S" line))
    [
      "H nonsense";
      "H 1.0 0 Z" (* unknown action *);
      "H 1.0 0 U" (* missing lead *);
      "H 1.0 0 S notanint";
      "H 1.0" (* truncated *);
      "H nan 0 D" (* non-finite time *);
      "H inf 0 S 3000";
      "H 1.0 0 U nan" (* non-finite lead *);
      "H 1.0 0 U -inf";
    ]

(* --- arrival order --- *)

(* The comparator [compare_arrival] replaced: polymorphic [compare] on
   a (proc, address) tuple to break arrival ties. *)
let tuple_compare (a : Request.t) (b : Request.t) =
  match Float.compare a.arrival_ms b.arrival_ms with
  | 0 -> compare (a.proc, a.address) (b.proc, b.address)
  | c -> c

(* Heavy ties: three arrival instants, three processors, three
   addresses.  [lba] numbers the requests, so a sort that reorders
   equal keys shows in the result. *)
let tied_trace =
  let open QCheck in
  map
    (List.mapi (fun i (t, proc, address) : Request.t ->
         {
           arrival_ms = float_of_int t;
           think_ms = 0.0;
           seg = 0;
           address;
           lba = i;
           size = 512;
           mode = Ir.Read;
           proc;
           disk = 0;
         }))
    (list_of_size (Gen.int_range 0 60)
       (triple (int_range 0 2) (int_range 0 2) (int_range (-1) 1)))

let test_sort_arrival_stable =
  QCheck.Test.make ~count:300 ~name:"sort_arrival = stable sort by the tuple comparator"
    tied_trace (fun reqs ->
      Request.sort_arrival reqs = List.stable_sort tuple_compare reqs)

let test_sort_arrival_in_order =
  QCheck.Test.make ~count:300 ~name:"sort_arrival returns an ordered list itself" tied_trace
    (fun reqs ->
      let sorted = List.stable_sort tuple_compare reqs in
      Request.sort_arrival sorted == sorted)

let test_compare_arrival_sign =
  QCheck.Test.make ~count:100
    ~name:"compare_arrival agrees in sign with the tuple comparator" tied_trace (fun reqs ->
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Int.compare (Request.compare_arrival a b) 0
              = Int.compare (tuple_compare a b) 0)
            reqs)
        reqs)

(* --- fault windows riding in the trace file, and result-returning loads --- *)

module Fault_model = Dp_faults.Fault_model

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_fault_line_roundtrip () =
  let reqs = single_trace () in
  let faults = Fault_model.make ~seed:42 ~rate:0.05 ~classes:[ Fault_model.Media_error ] () in
  let path = Filename.temp_file "dpower" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Request.save ~hints:some_hints ~faults path reqs;
      let back_reqs, back_hints, back_faults =
        match Bin.load_result path with
        | Ok (trace, hints, faults, _) -> (Trace.to_list trace, hints, faults)
        | Error e -> Alcotest.fail (Request.load_error_to_string e)
      in
      check Alcotest.int "requests preserved" (List.length reqs) (List.length back_reqs);
      check Alcotest.int "hints preserved" (List.length some_hints) (List.length back_hints);
      (match back_faults with
      | Some f ->
          check Alcotest.string "fault spec preserved" (Fault_model.to_spec faults)
            (Fault_model.to_spec f)
      | None -> Alcotest.fail "fault line dropped across the roundtrip"))

let test_load_result_line_numbers () =
  (* The first malformed line wins and is reported with its number and field. *)
  let good = "1.0 2.0 0 0 0 1024 R 0 0" in
  let parse lines = Request.of_string ~file:"t" (String.concat "\n" lines) in
  (match parse [ good; "# fine"; "1.0 2.0 0 0 0 1024 X 0 0" ] with
  | Error e ->
      check Alcotest.int "bad mode on line 3" 3 e.line;
      check Alcotest.bool (Printf.sprintf "field named in %S" e.msg) true
        (contains ~needle:"mode" e.msg)
  | Ok _ -> Alcotest.fail "bad mode letter must be rejected");
  (match parse [ good; "F 1:nope:all" ] with
  | Error e ->
      check Alcotest.int "bad fault line on line 2" 2 e.line;
      check Alcotest.bool (Printf.sprintf "field named in %S" e.msg) true
        (contains ~needle:"rate" e.msg)
  | Ok _ -> Alcotest.fail "bad fault line must be rejected");
  match parse [ good; "" ] with
  | Ok ([ _ ], [], None) -> ()
  | Ok _ -> Alcotest.fail "one request expected"
  | Error e -> Alcotest.fail (Request.load_error_to_string e)

let test_load_result_missing_file () =
  match Bin.load_result "/nonexistent/dpower.trace" with
  | Error { file; line = 0; msg = _ } ->
      check Alcotest.string "file recorded" "/nonexistent/dpower.trace" file
  | Error e -> Alcotest.failf "expected line 0, got %s" (Request.load_error_to_string e)
  | Ok _ -> Alcotest.fail "missing file must not load"

let test_load_result_reports_file_and_line () =
  let path = Filename.temp_file "dpower" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# header\n1.0 2.0 0 0 0 notanint R 0 0\n";
      close_out oc;
      match Bin.load_result path with
      | Error e ->
          check Alcotest.string "file" path e.Request.file;
          check Alcotest.int "line" 2 e.Request.line;
          check Alcotest.bool "field named" true (contains ~needle:"size" e.Request.msg);
          (* The rendering is the editor-friendly file:line: message shape. *)
          check Alcotest.bool "file:line rendering" true
            (contains ~needle:(path ^ ":2:") (Request.load_error_to_string e))
      | Ok _ -> Alcotest.fail "malformed size must be rejected")

(* Ids are non-negative: a negative segment, processor or disk would
   index the engine's queues or disk states out of bounds. *)
let test_negative_ids () =
  List.iter
    (fun (parse, line, field) ->
      match parse line with
      | Ok () -> Alcotest.failf "%S accepted" line
      | Error msg ->
          check Alcotest.string line
            (Printf.sprintf "bad %s \"-1\" (expected a non-negative integer)" field)
            msg)
    (let req line = Result.map ignore (Request.parse_line_res line) in
     let hint line = Result.map ignore (Hint.parse_line_res line) in
     [
       (req, "0.000 0.000 -1 0 0 4096 R 0 0", "seg");
       (req, "0.000 0.000 0 0 0 4096 R -1 0", "proc");
       (req, "0.000 0.000 0 0 0 4096 R 0 -1", "disk");
       (hint, "H 1.000 -1 D", "hint disk");
       (hint, "H 1.000 -1 U 10.000", "hint disk");
       (hint, "H 1.000 -1 S 9000", "hint disk");
     ])

let test_segments_barrier () =
  (* Two processors, two segments; proc 1's first segment is empty, so
     its second-segment work must still start after proc 0's first. *)
  let g = graph in
  let seg0_p0 = [| 0; 1; 2; 3 |] and seg1_p1 = [| 4; 5; 6; 7 |] in
  let per_proc = [| [ seg0_p0; [||] ]; [ [||]; seg1_p1 ] |] in
  let reqs =
    Trace.to_list (Generate.trace ~cost layout program g.Concrete.instances per_proc)
  in
  let p0_last =
    List.filter (fun r -> r.Request.proc = 0) reqs
    |> List.fold_left (fun acc r -> Float.max acc r.Request.arrival_ms) 0.0
  in
  let p1_first =
    List.filter (fun r -> r.Request.proc = 1) reqs
    |> List.fold_left (fun acc r -> Float.min acc r.Request.arrival_ms) infinity
  in
  check Alcotest.bool "barrier respected" true (p1_first > p0_last);
  check Alcotest.bool "segments tagged" true
    (List.for_all (fun r -> r.Request.seg = if r.Request.proc = 0 then 0 else 1) reqs)

let test_original_segments () =
  let a = Parallelize.conventional program graph ~procs:2 in
  let segs = Generate.original_segments program graph a in
  check Alcotest.int "two procs" 2 (Array.length segs);
  Array.iter (fun s -> check Alcotest.int "one segment per nest" 2 (List.length s)) segs;
  (* Every instance appears exactly once across all segments. *)
  let all =
    Array.to_list segs
    |> List.concat_map (fun segs -> List.concat_map Array.to_list segs)
    |> List.sort compare
  in
  check Alcotest.(list int) "partition of instances" (List.init 8 Fun.id) all

let test_summary () =
  let reqs = single_trace () in
  let s = Generate.summarize ~cost reqs in
  check Alcotest.int "requests" 8 s.Generate.requests;
  check Alcotest.int "bytes" (8 * 1024) s.Generate.bytes;
  check Alcotest.bool "positive io" true (s.Generate.io_ms > 0.0);
  check Alcotest.bool "makespan covers arrivals" true
    (s.Generate.makespan_ms
    >= List.fold_left (fun acc r -> Float.max acc r.Request.arrival_ms) 0.0 reqs);
  let f = Generate.io_fraction s in
  check Alcotest.bool "fraction in (0,1)" true (f > 0.0 && f < 1.0)

(* --- idle statistics --- *)

module Idle_stats = Dp_trace.Idle_stats

let test_idle_stats () =
  (* Three requests on one disk with known gaps: ~0.5 s and ~20 s. *)
  let mk arrival =
    {
      Request.arrival_ms = arrival;
      think_ms = 0.0;
      seg = 0;
      address = 0;
      lba = 0;
      size = 0;
      mode = Ir.Read;
      proc = 0;
      disk = 0;
    }
  in
  let svc = Cost_model.service_ms ~seek_distance:max_int cost ~bytes:0 in
  let reqs = [ mk 0.0; mk (svc +. 500.0); mk (2.0 *. svc +. 500.0 +. 20_000.0) ] in
  let h = Idle_stats.of_trace ~cost (Trace.of_list reqs) in
  check Alcotest.int "two gaps" 2 (Idle_stats.total_gaps h);
  check Alcotest.int "short gap bucket" 1 h.Idle_stats.counts.(0);
  (* 20 s falls in the (15.2, 31.6] bucket. *)
  check Alcotest.int "tpm bucket" 1 h.Idle_stats.counts.(3);
  check (Alcotest.float 0.3) "mass" 20.5 (Idle_stats.total_mass_s h);
  check (Alcotest.float 0.3) "exploitable" 20.0
    (Idle_stats.exploitable_mass_s h ~threshold_s:15.2);
  check (Alcotest.float 1e-9) "nothing beyond 120 s" 0.0
    (Idle_stats.exploitable_mass_s h ~threshold_s:120.0)

let test_idle_stats_restructuring_helps () =
  (* On a real workload, restructuring increases the TPM-exploitable idle
     mass — the mechanism behind every figure. *)
  let app = Option.get (Dp_workloads.Workloads.by_name "FFT") in
  let layout' =
    Dp_layout.Layout.make ~default:app.Dp_workloads.App.striping
      ~overrides:app.Dp_workloads.App.overrides app.Dp_workloads.App.program
  in
  let g = Concrete.build app.Dp_workloads.App.program in
  let trace order =
    Generate.trace layout' app.Dp_workloads.App.program g.Concrete.instances
      (Generate.single_stream ~order)
  in
  let base = trace (Concrete.original_order g) in
  let reuse =
    trace
      (Dp_restructure.Reuse_scheduler.schedule
         (Dp_restructure.Cluster.build_table layout' app.Dp_workloads.App.program g)
         g)
        .Dp_restructure.Reuse_scheduler.order
  in
  let exploitable trace =
    Idle_stats.exploitable_mass_s (Idle_stats.of_trace trace) ~threshold_s:15.2
  in
  check Alcotest.bool "restructured idle mass larger" true
    (exploitable reuse > exploitable base)

(* {1 Binary codec} *)

let tmp_file name = Filename.concat (Filename.get_temp_dir_name ()) name

let sample_reqs : Request.t list =
  [
    {
      arrival_ms = 0.0;
      think_ms = 1.0;
      seg = 0;
      address = 0;
      lba = 0;
      size = 1024;
      mode = Ir.Read;
      proc = 0;
      disk = 0;
    };
    {
      arrival_ms = 1.5;
      think_ms = 1.0;
      seg = 0;
      address = 1024;
      lba = 1024;
      size = 1024;
      mode = Ir.Read;
      proc = 0;
      disk = 0;
    };
    {
      arrival_ms = 2.125;
      think_ms = 0.1 +. 0.2;
      (* not representable in thousandths: exercises the raw-bits path *)
      seg = 1;
      address = 1 lsl 40;
      lba = 77;
      size = 32768;
      mode = Ir.Write;
      proc = 3;
      disk = 2;
    };
  ]

let sample_hints : Dp_trace.Hint.t list =
  [
    { at_ms = 10.0; disk = 0; action = Dp_trace.Hint.Spin_down };
    { at_ms = 12.5; disk = 1; action = Dp_trace.Hint.Pre_spin_up 10.8 };
    { at_ms = 0.3 *. 3.0; disk = 2; action = Dp_trace.Hint.Set_rpm 9000 };
  ]

let sample_faults = Result.get_ok (Fault_model.of_spec "42:0.25:md")

let bits f = Int64.bits_of_float f

let same_bits (a : Request.t) (b : Request.t) =
  a = b && bits a.arrival_ms = bits b.arrival_ms && bits a.think_ms = bits b.think_ms

let check_reqs_equal what expected got =
  check Alcotest.int (what ^ ": count") (List.length expected) (List.length got);
  List.iter2
    (fun a b -> check Alcotest.bool (what ^ ": request") true (same_bits a b))
    expected got

let sample_trace () = Trace.of_list sample_reqs

let test_bin_roundtrip () =
  let s = Bin.encode ~rounds:5 ~hints:sample_hints ~faults:sample_faults (sample_trace ()) in
  match Bin.decode s with
  | Error e -> Alcotest.failf "decode: %s" (Bin.error_to_string e)
  | Ok (trace, hints, faults, rounds) ->
      check_reqs_equal "roundtrip" sample_reqs (Trace.to_list trace);
      check Alcotest.bool "hints" true (hints = sample_hints);
      check Alcotest.(option string) "faults"
        (Some (Fault_model.to_spec sample_faults))
        (Option.map Fault_model.to_spec faults);
      check Alcotest.(option int) "rounds" (Some 5) rounds;
      let s' = Bin.encode (sample_trace ()) in
      let _, _, f', r' = Result.get_ok (Bin.decode s') in
      check Alcotest.bool "no faults" true (f' = None);
      check Alcotest.(option int) "no rounds" None r'

let test_bin_file_roundtrip () =
  let path = tmp_file "dpower-bin-roundtrip.dpt" in
  Bin.save ~hints:sample_hints ~faults:sample_faults path (sample_trace ());
  let read p = In_channel.with_open_bin p In_channel.input_all in
  (match Bin.decode (read path) with
  | Error e -> Alcotest.failf "decode: %s" (Bin.error_to_string e)
  | Ok (trace, hints, faults, rounds) ->
      check_reqs_equal "file" sample_reqs (Trace.to_list trace);
      check Alcotest.bool "file hints" true (hints = sample_hints);
      check Alcotest.bool "file faults" true (faults <> None);
      check Alcotest.(option int) "file rounds" None rounds);
  (* The loader agrees with the text parser on a text file, and names
     the format it dispatched on. *)
  let text = tmp_file "dpower-bin-roundtrip.trace" in
  Request.save ~hints:sample_hints ~faults:sample_faults text sample_reqs;
  let via_text = Result.get_ok (Request.of_string ~file:text (read text)) in
  let rt, ht, ft, text_as = Result.get_ok (Bin.load_result text) in
  check Alcotest.bool "auto = text parser" true (via_text = (Trace.to_list rt, ht, ft));
  check Alcotest.bool "text read as text" true (text_as = `Text);
  let rb, hb, fb, bin_as = Result.get_ok (Bin.load_result path) in
  check Alcotest.bool "binary read as binary" true (bin_as = `Bin);
  check_reqs_equal "auto bin" sample_reqs (Trace.to_list rb);
  check Alcotest.bool "auto bin hints" true (hb = sample_hints);
  check Alcotest.bool "auto bin faults" true (fb <> None);
  Sys.remove path;
  Sys.remove text

let test_bin_text_identity () =
  (* text -> bin -> text is byte-identical: quantized requests take the
     thousandths path, whose decode is the same correctly-rounded float the
     text parser produces. *)
  let reqs = single_trace () in
  let text1 = tmp_file "dpower-bin-text1.trace" in
  Request.save ~hints:sample_hints ~faults:sample_faults text1 reqs;
  let r1, h1, f1, _ = Result.get_ok (Bin.load_result text1) in
  let bin = Bin.encode ~hints:h1 ?faults:f1 r1 in
  let r2, h2, f2, _ = Result.get_ok (Bin.decode bin) in
  let text2 = tmp_file "dpower-bin-text2.trace" in
  Request.save ~hints:h2 ?faults:f2 text2 (Trace.to_list r2);
  let read p = In_channel.with_open_bin p In_channel.input_all in
  check Alcotest.string "text -> bin -> text bytes" (read text1) (read text2);
  Sys.remove text1;
  Sys.remove text2

let test_bin_quantize () =
  let r = List.nth sample_reqs 2 in
  let q = Trace.get (Bin.quantize (Trace.of_list [ r ])) 0 in
  check (Alcotest.float 1e-9) "quantize 3 decimals" 0.3 q.think_ms;
  (* A quantized value is exactly what the text format round-trips to. *)
  check Alcotest.bool "quantize = text parse" true
    (bits q.think_ms = bits (float_of_string (Printf.sprintf "%.3f" r.think_ms)));
  let h = Bin.quantize_hint { at_ms = 1.0 /. 3.0; disk = 0; action = Dp_trace.Hint.Pre_spin_up (2.0 /. 3.0) } in
  check Alcotest.bool "hint quantized" true
    (h.at_ms = 0.333 && h.action = Dp_trace.Hint.Pre_spin_up 0.667)

(* [Bin.quantize] rounds every time through one function, reached here
   through a hint's [at_ms].  It takes a fast path off printf and must
   return the float that the [%.3f] text round trip returns, bit for bit:
   on the named edges (signed zeros, halves that are not exact in binary,
   large and non-finite values), near thousandths and their halves, and
   on random bit patterns. *)
let test_bin_q3_reference =
  let open QCheck in
  let q3 x = (Bin.quantize_hint { at_ms = x; disk = 0; action = Dp_trace.Hint.Spin_down }).at_ms in
  let reference x = float_of_string (Printf.sprintf "%.3f" x) in
  let rec step x n =
    if n > 0 then step (Float.succ x) (n - 1) else if n < 0 then step (Float.pred x) (n + 1) else x
  in
  let near_thousandths =
    map
      (fun (k, half, ulps) -> step ((float_of_int k +. if half then 0.5 else 0.0) /. 1000.0) ulps)
      (triple (int_range (-4_000_000_000) 4_000_000_000) bool (int_range (-3) 3))
  in
  let edges =
    [ 0.0; -0.0; 0.0005; -0.0005; 0.0004999; -0.0004; 1.0005; 123.4565; 4.5e12; 1e300;
      Float.infinity; Float.neg_infinity; Float.nan ]
  in
  let value =
    oneof
      [
        oneofl edges;
        near_thousandths;
        map Int64.float_of_bits int64;
        float;
        map (fun x -> x *. 1e-3) float;
      ]
  in
  QCheck.Test.make ~count:20_000 ~name:"quantize = the %.3f text round trip, bit for bit" value
    (fun x -> bits (q3 x) = bits (reference x))

let test_bin_compression () =
  (* Acceptance: binary <= 25% of text across the Table-2 workloads (fixed
     header/chunk overhead is ~30 bytes, so toy traces are excluded). *)
  List.iter
    (fun (app : Dp_workloads.App.t) ->
      let g = Concrete.build app.program in
      let layout' = Dp_layout.Layout.make ~default:app.striping ~overrides:app.overrides app.program in
      let reqs =
        Generate.trace layout' app.program g.Concrete.instances
          (Generate.single_stream ~order:(Concrete.original_order g))
      in
      let text =
        Format.asprintf "%a"
          (fun ppf () ->
            List.iter (fun r -> Format.fprintf ppf "%a\n" Request.pp r) (Trace.to_list reqs))
          ()
      in
      let bin = Bin.encode (Bin.quantize reqs) in
      let ratio = float_of_int (String.length bin) /. float_of_int (String.length text) in
      if ratio > 0.25 then
        Alcotest.failf "app:%s: binary %d bytes vs text %d bytes (ratio %.2f > 0.25)"
          app.name (String.length bin) (String.length text) ratio)
    (Dp_workloads.Workloads.all ())

let corrupt s pos c =
  let b = Bytes.of_string s in
  Bytes.set b pos c;
  Bytes.to_string b


let test_bin_corruption () =
  let s = Bin.encode ~chunk_bytes:64 ~hints:sample_hints (sample_trace ()) in
  (* Bad magic *)
  (match Bin.decode (corrupt s 0 'X') with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error e ->
      check Alcotest.int "magic offset" 0 e.offset;
      check Alcotest.bool "magic msg" true
        (contains ~needle:"magic" e.msg));
  (* Version skew *)
  (match Bin.decode (corrupt s 4 '\009') with
  | Ok _ -> Alcotest.fail "bad version accepted"
  | Error e ->
      check Alcotest.bool "version msg" true
        (contains ~needle:"version 9" e.msg));
  (* Truncation: every strict prefix must fail, never loop or succeed. *)
  let n = String.length s in
  for cut = 0 to n - 1 do
    match Bin.decode ~file:"t.dpt" (String.sub s 0 cut) with
    | Ok _ -> Alcotest.failf "truncated prefix of %d bytes accepted" cut
    | Error e ->
        check Alcotest.string "truncation names the file" "t.dpt" e.file;
        if e.offset < 0 || e.offset > cut then
          Alcotest.failf "truncation offset %d out of range (prefix %d)" e.offset cut
  done;
  (* Bad checksum: flip one payload byte (first chunk payload starts after
     the 6-byte header + 'C' + 4-byte length). *)
  let pos = 6 + 5 + 2 in
  let flipped = corrupt s pos (Char.chr (Char.code s.[pos] lxor 0xff)) in
  (match Bin.decode flipped with
  | Ok _ -> Alcotest.fail "checksum mismatch accepted"
  | Error e ->
      check Alcotest.bool "checksum msg" true
        (contains ~needle:"checksum" e.msg);
      check Alcotest.int "checksum offset = chunk marker" 6 e.offset);
  (* Trailing bytes after the end marker. *)
  (match Bin.decode (s ^ "x") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error e ->
      check Alcotest.bool "trailing msg" true
        (contains ~needle:"trailing" e.msg))

(* One chunk holding [payload], framed and sealed as the encoder frames
   it, with a trailer counting one record. *)
let one_record_trace payload =
  let b = Buffer.create 64 in
  Buffer.add_string b Bin.magic;
  Buffer.add_char b (Char.chr Bin.format_version);
  Buffer.add_char b '\000';
  Buffer.add_char b 'C';
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b "E\001";
  Buffer.contents b

(* The decoder refuses a negative id at the offset of its record: a
   nine-byte varint can decode below zero, and [seg] is delta-coded.  A
   trace holds no negative id, so the records are written by hand: the
   first sample request's record, with one field replaced. *)
let test_bin_negative_ids () =
  (* Tag, proc 0, disk 0, arrival and think deltas, seg delta 0, and
     the address, lba and size deltas. *)
  let record = "\x10\x00\x00\x01\x05\x00\x01\x01\x05" in
  check Alcotest.string "the encoder writes this record"
    (Bin.encode (Trace.of_list [ List.hd sample_reqs ]))
    (one_record_trace record);
  let minus_one = String.make 8 '\xff' ^ "\x7f" in
  let with_field at width v =
    one_record_trace
      (String.sub record 0 at ^ v
      ^ String.sub record (at + width) (String.length record - at - width))
  in
  (* The first record's tag follows the 6-byte header and the 5-byte
     chunk header. *)
  let first_record = 11 in
  List.iter
    (fun (field, s) ->
      match Bin.decode s with
      | Ok _ -> Alcotest.failf "negative %s decoded" field
      | Error e ->
          check Alcotest.int (field ^ ": offset of the record") first_record e.offset;
          check Alcotest.string (field ^ ": message")
            (Printf.sprintf "bad %s -1 (expected a non-negative integer)" field)
            e.msg)
    [
      ("proc", with_field 1 1 minus_one);
      ("disk", with_field 2 1 minus_one);
      ("seg", with_field 5 1 "\x01");
      ( "hint disk",
        Bin.encode
          ~hints:[ { Dp_trace.Hint.at_ms = 1.0; disk = -1; action = Spin_down } ]
          Trace.empty );
    ]

(* Ids on both sides of the codec's dense slot range (ids below 1024)
   and far past it, interleaved so that each (proc, disk) pair codes
   against its own contexts. *)
let wide_id_reqs : Request.t list =
  let ids =
    [|
      (0, 0); (1023, 7); (1024, 3); (5, 1024); (70_000, 70_000); (1 lsl 40, 2);
      (3, 1 lsl 33);
    |]
  in
  List.init 120 (fun i ->
      let proc, disk = ids.(i mod Array.length ids) in
      let k = i / Array.length ids in
      {
        Request.arrival_ms = float_of_int i *. 0.5;
        think_ms = 0.25;
        seg = k / 8;
        address = (k * 4096) + disk;
        lba = k * 4096;
        size = 4096;
        mode = (if i mod 3 = 0 then Ir.Write else Ir.Read);
        proc;
        disk;
      })

(* A pair in the dense range and a pair outside it find their contexts
   alike: the encoding is the one recorded when every pair was hashed,
   and it decodes back to the same requests. *)
let test_bin_wide_ids () =
  let s = Bin.encode ~chunk_bytes:64 (Trace.of_list wide_id_reqs) in
  check Alcotest.string "encoding as recorded with hashed slots"
    "01753caf0bd3c7bb95bdbcbc9390d803" (Digest.to_hex (Digest.string s));
  match Bin.decode s with
  | Ok (t, _, _, _) -> check_reqs_equal "wide ids" wide_id_reqs (Trace.to_list t)
  | Error e -> Alcotest.fail (Bin.error_to_string e)

(* After a record whose ids sit in the dense range, a record with a
   negative id is still refused at its own offset, and one with a huge
   id still decodes. *)
let test_bin_ids_past_dense () =
  let record = "\x10\x00\x00\x01\x05\x00\x01\x01\x05" in
  let two second =
    let s = one_record_trace (record ^ second) in
    (* The trailer counts two records. *)
    String.sub s 0 (String.length s - 1) ^ "\002"
  in
  let minus_one = String.make 8 '\xff' ^ "\x7f" in
  let two_pow_56 = String.make 8 '\x80' ^ "\x01" in
  let rest = "\x01\x05\x00\x01\x01\x05" in
  List.iter
    (fun (field, s) ->
      match Bin.decode s with
      | Ok _ -> Alcotest.failf "negative %s decoded" field
      | Error e ->
          check Alcotest.int (field ^ ": offset of the second record") 20 e.offset;
          check Alcotest.string (field ^ ": message")
            (Printf.sprintf "bad %s -1 (expected a non-negative integer)" field)
            e.msg)
    [
      ("proc", two ("\x10" ^ minus_one ^ "\x00" ^ rest));
      ("disk", two ("\x10\x00" ^ minus_one ^ rest));
    ];
  List.iter
    (fun (what, s, procs, disks) ->
      match Bin.decode s with
      | Ok (t, _, _, _) ->
          check Alcotest.int (what ^ ": requests") 2 (Trace.length t);
          check Alcotest.int (what ^ ": procs") procs t.procs;
          check Alcotest.int (what ^ ": disks") disks t.disks
      | Error e -> Alcotest.fail (Bin.error_to_string e))
    [
      ("huge proc", two ("\x10" ^ two_pow_56 ^ "\x00" ^ rest), (1 lsl 56) + 1, 1);
      ("huge disk", two ("\x10\x00" ^ two_pow_56 ^ rest), 1, (1 lsl 56) + 1);
    ]

(* The [(offset, length)] of every chunk payload of a well-formed trace. *)
let chunk_payloads s =
  let pos = ref 6 in
  if Char.code s.[5] land 1 <> 0 then begin
    while Char.code s.[!pos] land 0x80 <> 0 do incr pos done;
    incr pos
  end;
  let rec go acc =
    if s.[!pos] = 'E' then List.rev acc
    else begin
      let len = Int32.to_int (String.get_int32_le s (!pos + 1)) in
      let data = !pos + 5 in
      pos := data + len + 16;
      go ((data, len) :: acc)
    end
  in
  go []

(* Every framing and record diagnostic, pinned: the decoder's verdict
   ([offset msg], or [ok]) on each strict prefix of a small multi-chunk
   trace with rounds, hints and a fault window, on each single-byte xor
   of it, and on each single-byte xor of a chunk payload whose checksum
   is re-sealed, so the record decoders see the damage.  The digests were
   recorded from the earlier record-list decoder, on the same requests
   in arrival order (the order a trace is encoded in): any moved offset
   or reworded message fails here. *)
let test_bin_diagnostics_pinned () =
  let s =
    Bin.encode ~chunk_bytes:48 ~rounds:3 ~hints:sample_hints ~faults:sample_faults
      (Trace.of_list (sample_reqs @ single_trace ()))
  in
  let n = String.length s in
  let render s =
    match Bin.decode s with
    | Ok _ -> "ok"
    | Error e -> Printf.sprintf "%d %s" e.offset e.msg
  in
  let xor s i x = corrupt s i (Char.chr (Char.code s.[i] lxor x)) in
  let masks = [ 0x01; 0x80; 0xff ] in
  let framing =
    List.init n (fun cut -> render (String.sub s 0 cut))
    @ List.concat_map (fun x -> List.init n (fun i -> render (xor s i x))) masks
  in
  let chunks = chunk_payloads s in
  let records =
    List.concat_map
      (fun (data, len) ->
        List.concat_map
          (fun x ->
            List.init len (fun i ->
                let b = Bytes.of_string (xor s (data + i) x) in
                Bytes.blit_string (Digest.subbytes b data len) 0 b (data + len) 16;
                render (Bytes.to_string b)))
          masks)
      chunks
  in
  let md5 l = Digest.to_hex (Digest.string (String.concat "\n" l)) in
  check Alcotest.bool "several chunks" true (List.length chunks >= 3);
  check Alcotest.string "framing diagnostics" "583a4a3ff33bb6eeecf4e611bdb6f598"
    (md5 framing);
  check Alcotest.string "record diagnostics" "084d92ad438e71f6bb15c3d9e74a9704"
    (md5 records)

let test_bin_error_rendering () =
  let path = tmp_file "dpower-bin-truncated.dpt" in
  Bin.save path (sample_trace ());
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 3)));
  (match Bin.load_result path with
  | Ok _ -> Alcotest.fail "truncated file accepted"
  | Error e ->
      let rendered = Request.load_error_to_string e in
      check Alcotest.bool "file:offset: msg shape" true
        (String.length rendered > String.length path && String.sub rendered 0 (String.length path + 1) = path ^ ":");
      check Alcotest.bool "offset nonzero" true (e.line > 0));
  Sys.remove path

let arbitrary_trace =
  let open QCheck in
  let float_ms =
    oneof
      [
        map (fun k -> float_of_int k /. 1000.0) (int_range 0 5_000_000);
        map Float.abs (float_bound_exclusive 1e6);
      ]
  in
  let req =
    map
      (fun ((arrival, think, seg, addr), (lba, size, mode, proc, disk)) : Request.t ->
        {
          arrival_ms = arrival;
          think_ms = think;
          seg;
          address = addr;
          lba;
          size;
          mode = (if mode then Ir.Write else Ir.Read);
          proc;
          disk;
        })
      (pair
         (quad float_ms float_ms (int_range 0 8) (int_range 0 (1 lsl 30)))
         (tup5 (int_range 0 (1 lsl 20)) (int_range 0 65536) bool (int_range 0 15)
            (int_range 0 15)))
  in
  QCheck.list_of_size (Gen.int_range 0 200) req

let test_bin_multichunk_roundtrip =
  QCheck.Test.make ~count:60 ~name:"multi-chunk round trip is bit-exact"
    QCheck.(pair (option (int_range 0 1_000_000)) arbitrary_trace)
    (fun (rounds, reqs) ->
      (* Tiny chunks force many chunk boundaries mid-stream. *)
      let s =
        Bin.encode ~chunk_bytes:48 ?rounds ~hints:sample_hints ~faults:sample_faults
          (Trace.of_list reqs)
      in
      match Bin.decode s with
      | Error e -> QCheck.Test.fail_report (Bin.error_to_string e)
      | Ok (trace', hints', faults', rounds') ->
          List.equal same_bits (Request.sort_arrival reqs) (Trace.to_list trace')
          && hints' = sample_hints
          && Option.map Fault_model.to_spec faults'
             = Some (Fault_model.to_spec sample_faults)
          && rounds' = rounds)

(* Heavy ties, several segments and one to six processors: the trace of
   a list is the list in arrival order, field for field and bit for
   bit. *)
let columnar_list =
  let open QCheck in
  map
    (fun (procs, rows) ->
      List.mapi
        (fun i (t, seg, proc, address) : Request.t ->
          {
            arrival_ms = (if i mod 7 = 3 then float_of_int t +. 0.1 else float_of_int t);
            think_ms = float_of_int i /. 3.0;
            seg;
            address;
            lba = i;
            size = 512 * (1 + (i mod 3));
            mode = (if i mod 2 = 0 then Ir.Read else Ir.Write);
            proc = proc mod procs;
            disk = i mod 4;
          })
        rows)
    (pair (int_range 1 6)
       (list_of_size (Gen.int_range 0 80)
          (quad (int_range 0 3) (int_range 0 3) (int_range 0 5) (int_range (-1) 1))))

let marshal v = Marshal.to_string v [ Marshal.No_sharing ]

let test_trace_of_list =
  QCheck.Test.make ~count:300 ~name:"to_list (of_list l) = sort_arrival l" columnar_list
    (fun reqs ->
      marshal (Trace.to_list (Trace.of_list reqs)) = marshal (Request.sort_arrival reqs))

(* Runs as [Trace.merge] takes them: run [p] holds processor [p]'s
   requests.  Arrivals come from a few values, so heads often tie
   across runs, and a third of the runs are empty.  The merge must give
   the trace of the concatenation, column for column. *)
let merge_runs =
  let open QCheck in
  let run p =
    map
      (fun rows ->
        Trace.of_list
          (List.mapi
             (fun i (t, address, disk) : Request.t ->
               {
                 arrival_ms = float_of_int t /. 2.0;
                 think_ms = float_of_int i;
                 seg = 0;
                 address;
                 lba = i;
                 size = 512;
                 mode = (if (p + i) mod 3 = 0 then Ir.Write else Ir.Read);
                 proc = p;
                 disk;
               })
             rows))
      (list_of_size
         (Gen.frequency [ (1, Gen.pure 0); (2, Gen.int_range 1 6) ])
         (triple (int_range 0 12) (int_range 0 3) (int_range 0 3)))
  in
  let runs k =
    let rec go p acc =
      if p < 0 then Gen.pure acc else Gen.(gen (run p) >>= fun r -> go (p - 1) (r :: acc))
    in
    go (k - 1) []
  in
  make
    ~print:(fun rs -> Printf.sprintf "%d runs" (Array.length rs))
    Gen.(
      frequency [ (3, int_range 1 8); (2, int_range 9 200); (1, int_range 900 1000) ]
      >>= fun k -> map Array.of_list (runs k))

let test_trace_merge =
  QCheck.Test.make ~count:60 ~name:"merge runs = of_list of their concatenation" merge_runs
    (fun runs ->
      marshal (Trace.merge runs)
      = marshal (Trace.of_list (List.concat_map Trace.to_list (Array.to_list runs))))

let test_bin_columns_roundtrip =
  QCheck.Test.make ~count:100 ~name:"decode (encode t) = t, column for column"
    QCheck.(pair arbitrary_trace bool)
    (fun (reqs, with_hints) ->
      let t = Trace.of_list reqs in
      let hints = if with_hints then sample_hints else [] in
      match Bin.decode (Bin.encode ~chunk_bytes:64 ~hints t) with
      | Error e -> QCheck.Test.fail_report (Bin.error_to_string e)
      | Ok (t', hints', _, _) -> marshal t' = marshal t && hints' = hints)

(* A caller that checked the whole input (the stage store) skips the
   chunk checksums, and only those: here the first chunk's is zeroed. *)
let test_bin_verified () =
  let s = Bin.encode ~chunk_bytes:64 ~hints:sample_hints (sample_trace ()) in
  let len = Int32.to_int (String.get_int32_le s 7) in
  let b = Bytes.of_string s in
  Bytes.fill b (11 + len) 16 '\000';
  let stale = Bytes.to_string b in
  check Alcotest.bool "a plain decode refuses the chunk" true
    (Result.is_error (Bin.decode stale));
  (match Bin.decode ~verified:true stale with
  | Ok (t, hints, _, _) ->
      check Alcotest.bool "a verified decode reads it" true
        (marshal t = marshal (sample_trace ()) && hints = sample_hints)
  | Error e -> Alcotest.failf "verified decode: %s" (Bin.error_to_string e));
  check Alcotest.bool "a verified decode still checks the framing" true
    (Result.is_error (Bin.decode ~verified:true (String.sub s 0 (String.length s - 1))))

(* Under a cost model with zero-cost steps, a statement that reads and
   writes one element issues both at one instant: the read, generated
   first, comes first. *)
let test_tie_keeps_program_order () =
  let prog =
    Ir.program
      [ Ir.array_decl ~elem_size:1024 "x" [ 4 ] ]
      [
        Ir.nest 0
          [ Ir.loop "i" (c 0) (c 3) ]
          [ Ir.stmt 0 ~work_cycles:0 [ Ir.read "x" [ i ]; Ir.write "x" [ i ] ] ];
      ]
  in
  let lay =
    Layout.make ~default:(Striping.make ~unit_bytes:1024 ~factor:2 ~start_disk:0) prog
  in
  let g = Concrete.build prog in
  let zero =
    { Cost_model.default with seek_ms = 0.0; rotation_ms = 0.0; transfer_mb_s = infinity }
  in
  let t =
    Generate.trace ~cost:zero lay prog g.Concrete.instances
      (Generate.single_stream ~order:(Concrete.original_order g))
  in
  check Alcotest.int "eight requests" 8 (Trace.length t);
  for k = 0 to 3 do
    check Alcotest.bool (Printf.sprintf "x[%d]: one instant" k) true
      (Float.Array.get t.arrival (2 * k) = Float.Array.get t.arrival ((2 * k) + 1));
    check Alcotest.bool (Printf.sprintf "x[%d]: read, then write" k) true
      (Trace.mode t (2 * k) = Ir.Read && Trace.mode t ((2 * k) + 1) = Ir.Write)
  done

(* The three-pass summary [Generate.summarize] replaced, with the
   per-processor compute time summed in processor order. *)
let summarize_reference ?(cost = Cost_model.default) reqs : Generate.summary =
  let requests = List.length reqs in
  let bytes = List.fold_left (fun acc (r : Request.t) -> acc + r.size) 0 reqs in
  let pos = Hashtbl.create 8 in
  let service (r : Request.t) =
    let seek_distance =
      match Hashtbl.find_opt pos r.proc with
      | Some (d, e) when d = r.disk -> r.lba - e
      | _ -> max_int
    in
    Hashtbl.replace pos r.proc (r.disk, r.lba + r.size);
    Cost_model.service_ms ~seek_distance cost ~bytes:r.size
  in
  let io_ms = List.fold_left (fun acc r -> acc +. service r) 0.0 reqs in
  Hashtbl.reset pos;
  let makespan_ms =
    List.fold_left
      (fun acc (r : Request.t) -> Float.max acc (r.arrival_ms +. service r))
      0.0 reqs
  in
  Hashtbl.reset pos;
  let by_proc = Hashtbl.create 8 in
  List.iter
    (fun (r : Request.t) ->
      let last_end, compute =
        Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by_proc r.proc)
      in
      let gap = Float.max 0.0 (r.arrival_ms -. last_end) in
      Hashtbl.replace by_proc r.proc (r.arrival_ms +. service r, compute +. gap))
    reqs;
  let compute_ms =
    Hashtbl.fold (fun p (_, c) acc -> (p, c) :: acc) by_proc []
    |> List.sort compare
    |> List.fold_left (fun acc (_, c) -> acc +. c) 0.0
  in
  { requests; bytes; makespan_ms; compute_ms; io_ms }

let test_summarize_one_pass =
  QCheck.Test.make ~count:200 ~name:"summarize = the three-pass summary" arbitrary_trace
    (fun reqs ->
      let s = Generate.summarize reqs in
      let r = summarize_reference (Request.sort_arrival reqs) in
      check Alcotest.int "requests" r.requests s.requests;
      check Alcotest.int "bytes" r.bytes s.bytes;
      check (Alcotest.float 0.0) "makespan_ms" r.makespan_ms s.makespan_ms;
      check (Alcotest.float 0.0) "compute_ms" r.compute_ms s.compute_ms;
      check (Alcotest.float 0.0) "io_ms" r.io_ms s.io_ms;
      true)

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "cost model" `Quick test_cost_model;
        Alcotest.test_case "timing" `Quick test_trace_timing;
        Alcotest.test_case "file roundtrip" `Quick test_trace_roundtrip;
        Alcotest.test_case "malformed input" `Quick test_trace_malformed;
        Alcotest.test_case "hint roundtrip" `Quick test_hint_roundtrip;
        Alcotest.test_case "malformed hints" `Quick test_hint_malformed;
        Alcotest.test_case "fault line roundtrip" `Quick test_fault_line_roundtrip;
        Alcotest.test_case "loader line numbers" `Quick test_load_result_line_numbers;
        Alcotest.test_case "loader missing file" `Quick test_load_result_missing_file;
        Alcotest.test_case "loader file:line errors" `Quick
          test_load_result_reports_file_and_line;
        Alcotest.test_case "segment barriers" `Quick test_segments_barrier;
        Alcotest.test_case "original segments" `Quick test_original_segments;
        Alcotest.test_case "summary" `Quick test_summary;
        Alcotest.test_case "idle stats" `Quick test_idle_stats;
        Alcotest.test_case "restructuring lengthens gaps" `Slow
          test_idle_stats_restructuring_helps;
        QCheck_alcotest.to_alcotest test_sort_arrival_stable;
        QCheck_alcotest.to_alcotest test_sort_arrival_in_order;
        QCheck_alcotest.to_alcotest test_compare_arrival_sign;
        Alcotest.test_case "negative ids" `Quick test_negative_ids;
        QCheck_alcotest.to_alcotest test_summarize_one_pass;
        QCheck_alcotest.to_alcotest test_trace_of_list;
        QCheck_alcotest.to_alcotest test_trace_merge;
        Alcotest.test_case "ties keep program order" `Quick test_tie_keeps_program_order;
      ] );
    ( "trace.bin",
      [
        Alcotest.test_case "roundtrip" `Quick test_bin_roundtrip;
        Alcotest.test_case "file roundtrip + sniffing loader" `Quick
          test_bin_file_roundtrip;
        Alcotest.test_case "text -> bin -> text byte-identity" `Quick
          test_bin_text_identity;
        Alcotest.test_case "quantize = text precision" `Quick test_bin_quantize;
        QCheck_alcotest.to_alcotest test_bin_q3_reference;
        Alcotest.test_case "binary <= 25% of text" `Quick test_bin_compression;
        Alcotest.test_case "corruption diagnostics" `Quick test_bin_corruption;
        Alcotest.test_case "file:offset error rendering" `Quick test_bin_error_rendering;
        Alcotest.test_case "negative ids refused at their record" `Quick test_bin_negative_ids;
        Alcotest.test_case "ids outside the dense slot range" `Quick test_bin_wide_ids;
        Alcotest.test_case "ids past the dense range after dense ones" `Quick
          test_bin_ids_past_dense;
        QCheck_alcotest.to_alcotest test_bin_multichunk_roundtrip;
        Alcotest.test_case "diagnostics pinned" `Quick test_bin_diagnostics_pinned;
        QCheck_alcotest.to_alcotest test_bin_columns_roundtrip;
        Alcotest.test_case "verified input skips chunk checksums" `Quick test_bin_verified;
      ] );
  ]
