(* Frame rendering over Live state.  Everything printed is derived
   from simulated time, so frames are deterministic and replayable. *)

type mode = Ansi | Plain

let csi_home = "\x1b[H"
let csi_eol = "\x1b[K"
let csi_eos = "\x1b[J"

let header b mode live =
  let line =
    Printf.sprintf "dpower live  t=%.1fs  epoch %d  events %d" (Live.now_ms live /. 1000.0)
      (Live.epochs_completed live)
      (Live.events_seen live)
  in
  Buffer.add_string b line;
  if mode = Ansi then Buffer.add_string b csi_eol;
  Buffer.add_char b '\n';
  let cols =
    "disk  state         res(s)  rate(Hz)  p50(ms)  p95(ms)  energy(J)    req  flt  rep  ddl  track"
  in
  Buffer.add_string b cols;
  if mode = Ansi then Buffer.add_string b csi_eol;
  Buffer.add_char b '\n'

let row b mode live (d : Live.disk_live) =
  let line =
    Printf.sprintf "%4d  %-12s %7.1f %9.2f %8.1f %8.1f %10.1f %6d %4d %4d %4d  %s" d.Live.disk
      (Event.track_name d.Live.state)
      (Live.residency_ms live ~disk:d.Live.disk /. 1000.0)
      (Live.arrival_rate_hz live ~disk:d.Live.disk)
      (Live.recent_percentile live ~disk:d.Live.disk 0.50)
      (Live.recent_percentile live ~disk:d.Live.disk 0.95)
      d.Live.energy_j d.Live.requests d.Live.faults d.Live.repairs d.Live.deadline_misses
      (Bytes.to_string (Live.track_chars live ~disk:d.Live.disk))
  in
  Buffer.add_string b line;
  if mode = Ansi then Buffer.add_string b csi_eol;
  Buffer.add_char b '\n'

let frame ~mode live =
  let b = Buffer.create 512 in
  (match mode with
  | Ansi -> Buffer.add_string b csi_home
  | Plain -> Buffer.add_string b "----\n");
  header b mode live;
  Array.iter (row b mode live) (Live.disks live);
  if mode = Ansi then Buffer.add_string b csi_eos;
  Buffer.contents b

let driver ?(mode = Plain) ~out live =
  let last = ref (Live.epochs_completed live) in
  let feed ev =
    Live.feed live ev;
    let now = Live.epochs_completed live in
    (* One repaint per epoch crossing keeps output proportional to
       simulated time, not to event density; an event that skips several
       epochs still yields a single frame of the state after it. *)
    if now > !last then begin
      last := now;
      out (frame ~mode live)
    end
  in
  let finish () = out (frame ~mode live) in
  (Sink.stream feed, finish)
