(* Timestamps need absolute, not relative, precision: %.6g loses hundreds
   of microseconds on a minutes-long run, which reads as gaps between
   spans in the viewer.  Exact floats keep tracks contiguous at any run
   length. *)
let us_of_ms ms = ms *. 1000.0

let trace_json ?until_ms events =
  let open Dp_util.Json in
  let clip stop = match until_ms with None -> stop | Some u -> Float.min stop u in
  let b = Buffer.create 4096 in
  let first = ref true in
  let add_event fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b (to_compact ~floats:Exact (Obj fields))
  in
  let track ph disk = [ ("ph", String ph); ("pid", Int 0); ("tid", Int disk) ] in
  let span disk start_ms stop_ms =
    track "X" disk
    @ [ ("ts", Float (us_of_ms start_ms)); ("dur", Float (us_of_ms (stop_ms -. start_ms))) ]
  in
  let instant disk at_ms =
    [ ("ph", String "i"); ("s", String "t"); ("pid", Int 0); ("tid", Int disk);
      ("ts", Float (us_of_ms at_ms)) ]
  in
  let named cat name = [ ("cat", String cat); ("name", String name) ] in
  let args fields = [ ("args", Obj fields) ] in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  (* One named track per disk. *)
  let disks = List.fold_left (fun acc e -> max acc (Event.disk e + 1)) 0 events in
  for d = 0 to disks - 1 do
    let meta name arg = add_event (track "M" d @ (("name", String name) :: args [ arg ])) in
    meta "thread_name" ("name", String (Printf.sprintf "disk %d" d));
    meta "thread_sort_index" ("sort_index", Int d)
  done;
  List.iter
    (fun e ->
      match e with
      | Event.Power p ->
          let stop = clip p.stop_ms in
          if stop > p.start_ms then
            add_event
              (span p.disk p.start_ms stop
              @ named "power" (Event.track_name p.state)
              @ args
                  (("energy_j", Float p.energy_j)
                  :: (match p.state with Event.Idle rpm -> [ ("rpm", Int rpm) ] | _ -> [])))
      | Event.Service s ->
          (* Nested under the ACTIVE span on the same track, keeping the
             request's identity (lba, size, response) inspectable. *)
          if s.stop_ms > s.start_ms then
            add_event
              (span s.disk s.start_ms (clip s.stop_ms)
              @ named "io" "request"
              @ args
                  [ ("lba", Int s.lba); ("bytes", Int s.bytes);
                    ("response_ms", Float (s.stop_ms -. s.arrival_ms)) ])
      | Event.Hint_exec h ->
          add_event (instant h.disk h.at_ms @ named "hint" ("hint:" ^ h.action))
      | Event.Fault f ->
          add_event
            (instant f.disk f.at_ms @ named "fault" ("fault:" ^ f.kind)
            @ args [ ("cost_ms", Float f.cost_ms) ])
      | Event.Decision d -> add_event (instant d.disk d.at_ms @ named "decision" d.decision)
      | Event.Repair r ->
          add_event
            (instant r.disk r.at_ms @ named "repair" ("repair:" ^ r.op)
            @ args [ ("blocks", Int r.blocks); ("cost_ms", Float r.cost_ms) ])
      | Event.Deadline d ->
          add_event
            (instant d.disk d.at_ms @ named "deadline" "deadline-miss"
            @ args
                [ ("proc", Int d.proc); ("response_ms", Float d.response_ms);
                  ("deadline_ms", Float d.deadline_ms) ]))
    events;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write ?until_ms path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_json ?until_ms events))
