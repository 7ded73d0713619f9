module Event = Dp_obs.Event
module Sink = Dp_obs.Sink

type segment = {
  start_ms : float;
  stop_ms : float;
  state : Event.power_state;
  energy_j : float;
}
type t = segment list array

(* A span with neither duration nor energy covers nothing, so it is not
   a segment; a zero-length lump charge carries energy and is one. *)
let recorder ~disks () =
  if disks < 1 then invalid_arg "Timeline.recorder: disks must be >= 1";
  let segs = Array.make disks [] in
  let sink =
    Sink.stream (function
      | Event.Power { disk; state; start_ms; stop_ms; energy_j; _ }
        when stop_ms > start_ms || energy_j <> 0.0 ->
          segs.(disk) <- { start_ms; stop_ms; state; energy_j } :: segs.(disk)
      | _ -> ())
  in
  (sink, fun () -> Array.map List.rev segs)

let char_of_state model = function
  | Event.Active -> '#'
  | Event.Transition -> '~'
  | Event.Standby -> '_'
  | Event.Idle rpm ->
      let level =
        (rpm - model.Disk_model.rpm_min) / model.Disk_model.rpm_step
      in
      Char.chr (Char.code '0' + max 0 (min 9 level))

let render ?(width = 96) ~model ~until_ms t =
  if until_ms <= 0.0 then ""
  else begin
    let buf = Buffer.create ((width + 16) * Array.length t) in
    let slot_ms = until_ms /. float_of_int width in
    Array.iteri
      (fun d segs ->
        Buffer.add_string buf (Printf.sprintf "d%-2d |" d);
        let segs = Array.of_list segs in
        let cursor = ref 0 in
        for w = 0 to width - 1 do
          let slot_start = float_of_int w *. slot_ms in
          let slot_stop = slot_start +. slot_ms in
          (* Accumulate occupancy per state over the slot. *)
          let best_state = ref None and best_time = ref 0.0 in
          while
            !cursor < Array.length segs && segs.(!cursor).stop_ms <= slot_start
          do
            incr cursor
          done;
          let k = ref !cursor in
          while !k < Array.length segs && segs.(!k).start_ms < slot_stop do
            let s = segs.(!k) in
            let overlap = Float.min s.stop_ms slot_stop -. Float.max s.start_ms slot_start in
            if overlap > !best_time then begin
              best_time := overlap;
              best_state := Some s.state
            end;
            incr k
          done;
          Buffer.add_char buf
            (match !best_state with
            | Some s -> char_of_state model s
            | None -> ' ')
        done;
        Buffer.add_string buf "|\n")
      t;
    Buffer.add_string buf
      (Printf.sprintf
         "     0%*s  (#busy ~transition _standby digits: idle RPM level)\n"
         (width - 1)
         (Printf.sprintf "%.0fs" (until_ms /. 1000.)));
    Buffer.contents buf
  end

let matches_state query actual =
  match (query, actual) with Event.Idle -1, Event.Idle _ -> true | a, b -> a = b

let state_time_ms t ~disk state =
  List.fold_left
    (fun acc (s : segment) ->
      if matches_state state s.state then acc +. (s.stop_ms -. s.start_ms) else acc)
    0.0 t.(disk)
