(* Rolling per-disk state over the event stream.  Everything here is
   driven by simulated time from the events themselves — no wall clock
   anywhere — so the fold is deterministic and replayable. *)

type disk_live = {
  disk : int;
  mutable state : Event.power_state;
  mutable state_since_ms : float;
  mutable now_ms : float;
  mutable energy_j : float;
  mutable requests : int;
  mutable faults : int;
  mutable repairs : int;
  mutable deadline_misses : int;
  mutable ewma_interarrival_ms : float;
  mutable last_arrival_ms : float;
  recent : float array;
  mutable recent_len : int;
  mutable recent_next : int;
}

(* Per-disk epoch machinery for the power-state track: wall-extent
   milliseconds of the current epoch split by state, finalized into one
   character per elapsed epoch. *)
type epoch_state = {
  mutable cur_epoch : int;
  acc : float array;  (* active / idle / standby / transition ms *)
  trk : Bytes.t;  (* char ring, one byte per finalized epoch *)
  mutable trk_len : int;
  mutable trk_next : int;
}

type t = {
  e_ms : float;
  d : disk_live array;
  ep : epoch_state array;
  mutable g_now_ms : float;
  mutable seen : int;
}

let state_index = function
  | Event.Active -> 0
  | Event.Idle _ -> 1
  | Event.Standby -> 2
  | Event.Transition -> 3

let state_char = [| 'A'; 'i'; '.'; '~' |]

let create ?(epoch_ms = 1000.0) ?(window = 256) ?(track = 64) ~disks () =
  if disks < 1 then invalid_arg "Live.create: disks must be >= 1";
  if epoch_ms <= 0.0 then invalid_arg "Live.create: epoch_ms must be > 0";
  if window < 1 then invalid_arg "Live.create: window must be >= 1";
  if track < 1 then invalid_arg "Live.create: track must be >= 1";
  {
    e_ms = epoch_ms;
    d =
      Array.init disks (fun disk ->
          {
            disk;
            state = Event.Idle 0;
            state_since_ms = 0.0;
            now_ms = 0.0;
            energy_j = 0.0;
            requests = 0;
            faults = 0;
            repairs = 0;
            deadline_misses = 0;
            ewma_interarrival_ms = 0.0;
            last_arrival_ms = Float.nan;
            recent = Array.make window 0.0;
            recent_len = 0;
            recent_next = 0;
          });
    ep =
      Array.init disks (fun _ ->
          {
            cur_epoch = 0;
            acc = Array.make 4 0.0;
            trk = Bytes.make track '?';
            trk_len = 0;
            trk_next = 0;
          });
    g_now_ms = 0.0;
    seen = 0;
  }

let check_disk t where disk =
  if disk < 0 || disk >= Array.length t.d then
    invalid_arg (Printf.sprintf "Live.%s: event disk out of range" where)

(* Close the current epoch of one disk: push the state it spent the
   most time in (or '?' when no span covered it) and start the next. *)
let finalize_epoch e =
  let best = ref (-1) and best_ms = ref 0.0 in
  for k = 0 to 3 do
    if e.acc.(k) > !best_ms then begin
      best := k;
      best_ms := e.acc.(k)
    end;
    e.acc.(k) <- 0.0
  done;
  let c = if !best < 0 then '?' else state_char.(!best) in
  Bytes.set e.trk e.trk_next c;
  let cap = Bytes.length e.trk in
  e.trk_next <- (e.trk_next + 1) mod cap;
  if e.trk_len < cap then e.trk_len <- e.trk_len + 1

(* Attribute the wall extent [start, stop) to epochs.  O(#epochs the
   span crosses), which amortizes to O(1) per epoch over a run; no
   allocation. *)
let span_track t e start stop sidx =
  if stop > start then begin
    let s = ref (Float.max start (float_of_int e.cur_epoch *. t.e_ms)) in
    while float_of_int (e.cur_epoch + 1) *. t.e_ms <= stop do
      let upto = float_of_int (e.cur_epoch + 1) *. t.e_ms in
      if upto > !s then begin
        e.acc.(sidx) <- e.acc.(sidx) +. (upto -. !s);
        s := upto
      end;
      finalize_epoch e;
      e.cur_epoch <- e.cur_epoch + 1
    done;
    if stop > !s then e.acc.(sidx) <- e.acc.(sidx) +. (stop -. !s)
  end

let bump_now t at =
  if at > t.g_now_ms then t.g_now_ms <- at

let feed t ev =
  t.seen <- t.seen + 1;
  match ev with
  | Event.Power p ->
      check_disk t "feed" p.disk;
      let d = t.d.(p.disk) in
      d.energy_j <- d.energy_j +. p.energy_j;
      (* Residency clock: a span of a new state (an RPM change counts —
         IDLE@12000 and IDLE@6000 are different rows on the console)
         restarts it; contiguous spans of the same state extend it. *)
      if d.state <> p.state || p.start_ms > d.now_ms then begin
        d.state <- p.state;
        d.state_since_ms <- p.start_ms
      end;
      if p.stop_ms > d.now_ms then d.now_ms <- p.stop_ms;
      span_track t t.ep.(p.disk) p.start_ms p.stop_ms (state_index p.state);
      bump_now t p.stop_ms
  | Event.Service s ->
      check_disk t "feed" s.disk;
      let d = t.d.(s.disk) in
      d.requests <- d.requests + 1;
      d.recent.(d.recent_next) <- s.stop_ms -. s.arrival_ms;
      d.recent_next <- (d.recent_next + 1) mod Array.length d.recent;
      if d.recent_len < Array.length d.recent then d.recent_len <- d.recent_len + 1;
      (* EWMA over inter-arrival times, alpha 0.2: recent enough to
         follow phase changes, smooth enough to read at a glance. *)
      if not (Float.is_nan d.last_arrival_ms) then begin
        let dt = s.arrival_ms -. d.last_arrival_ms in
        if dt >= 0.0 then
          d.ewma_interarrival_ms <-
            (if d.ewma_interarrival_ms = 0.0 then dt
             else (0.2 *. dt) +. (0.8 *. d.ewma_interarrival_ms))
      end;
      d.last_arrival_ms <- s.arrival_ms;
      bump_now t s.stop_ms
  | Event.Hint_exec h ->
      check_disk t "feed" h.disk;
      bump_now t h.at_ms
  | Event.Fault f ->
      check_disk t "feed" f.disk;
      t.d.(f.disk).faults <- t.d.(f.disk).faults + 1;
      bump_now t f.at_ms
  | Event.Repair r ->
      check_disk t "feed" r.disk;
      t.d.(r.disk).repairs <- t.d.(r.disk).repairs + 1;
      bump_now t r.at_ms
  | Event.Deadline dl ->
      check_disk t "feed" dl.disk;
      t.d.(dl.disk).deadline_misses <- t.d.(dl.disk).deadline_misses + 1;
      bump_now t dl.at_ms
  | Event.Decision dc ->
      check_disk t "feed" dc.disk;
      bump_now t dc.at_ms

let sink t = Sink.stream (feed t)
let disks t = t.d
let now_ms t = t.g_now_ms
let events_seen t = t.seen
let epoch_ms t = t.e_ms
let epochs_completed t = int_of_float (t.g_now_ms /. t.e_ms)

let recent_percentile t ~disk q =
  check_disk t "recent_percentile" disk;
  let d = t.d.(disk) in
  if d.recent_len = 0 then 0.0
  else begin
    let a = Array.sub d.recent 0 d.recent_len in
    Array.sort Float.compare a;
    let n = d.recent_len in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(min (n - 1) (max 0 (rank - 1)))
  end

let arrival_rate_hz t ~disk =
  check_disk t "arrival_rate_hz" disk;
  let w = t.d.(disk).ewma_interarrival_ms in
  if w > 0.0 then 1000.0 /. w else 0.0

let residency_ms t ~disk =
  check_disk t "residency_ms" disk;
  let d = t.d.(disk) in
  Float.max 0.0 (d.now_ms -. d.state_since_ms)

let track_chars t ~disk =
  check_disk t "track_chars" disk;
  let e = t.ep.(disk) in
  let cap = Bytes.length e.trk in
  let first = if e.trk_len < cap then 0 else e.trk_next in
  Bytes.init e.trk_len (fun i -> Bytes.get e.trk ((first + i) mod cap))
