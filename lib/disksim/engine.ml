module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
module Hint = Dp_trace.Hint
module Injector = Dp_faults.Injector
module Repair = Dp_repair.Repair
module Sink = Dp_obs.Sink
module Obs_event = Dp_obs.Event
module Online = Dp_online.Online
module Domain_pool = Dp_util.Domain_pool
module Minheap = Dp_util.Minheap

type disk_stats = {
  disk : int;
  requests : int;
  energy_j : float;
  busy_ms : float;
  idle_ms : float;
  standby_ms : float;
  transition_ms : float;
  spin_downs : int;
  spin_ups : int;
  speed_changes : int;
  spin_up_retries : int;
  media_retries : int;
  latency_spikes : int;
  degraded_ms : float;
  remaps : int;
  remap_penalty_hits : int;
  scrub_chunks : int;
  scrub_found : int;
  reconstructions : int;
  rebuild_chunks : int;
  failovers : int;
  disk_failures : int;
  rebuilds_completed : int;
  response_ms_total : float;
  response_ms_max : float;
  last_completion_ms : float;
}

type result = {
  policy : string;
  per_disk : disk_stats array;
  energy_j : float;
  io_time_ms : float;
  makespan_ms : float;
}

(* The fault machinery of one run: the seeded injector deciding *when*
   operations misbehave, and the controller's bounded retry/backoff
   discipline deciding *how* they are re-attempted. *)
type fault_ctx = { inj : Injector.t; retry : Policy.retry_config }


(* --- per-run prices ---

   Every power and service figure the per-request path reads, computed
   once per run from the run's model.  Level [k] of a table is the speed
   [rpm_max - k * rpm_step], the ladder the engine's disks move on (they
   start at full speed and shift one step at a time).  The watts are
   [Disk_model]'s own results; a service price repeats
   [Disk_model.service_ms]'s operations in its order on the tabled
   operands, so each price is the same float bit for bit.  A speed off
   the ladder is priced into a spare slot past the last level by
   [Disk_model] itself, which also raises its [Invalid_argument] on a
   speed outside the model's range.  The engine's disks never leave the
   ladder, so a run never writes the spare slot, and the shard groups
   of a run, which share its tables across domains, only read them.  A
   lookup returns a slot, not a float, so that a price read on the hot
   path stays unboxed.  The tables belong to one run: runs differ in
   model, and chaos replays runs on several domains at once. *)
type prices = {
  model : Disk_model.t;
  top : int;  (* rpm_max *)
  step : int;
  levels : int;  (* speeds tabled: 0 when the model refuses rpm_max *)
  idle_w : Float.Array.t;
  active_w : Float.Array.t;
  slowdown : Float.Array.t;  (* rpm_max / rpm *)
  rotation_ms : Float.Array.t;  (* rotation_ms *. slowdown *)
  seek_ms : Float.Array.t;  (* by Disk_model.seek_class *)
  transfer : float;  (* transfer_mb_s *. 1024.0 *. 1024.0 *)
  level_s : float;  (* Disk_model.drpm_level_transition_s *)
}

(* Level [k]'s figures, or the spare slot's. *)
let fill px k rpm =
  let m = px.model in
  Float.Array.set px.idle_w k (Disk_model.idle_power_w m ~rpm);
  Float.Array.set px.active_w k (Disk_model.active_power_w m ~rpm);
  let slowdown = float_of_int m.Disk_model.rpm_max /. float_of_int rpm in
  Float.Array.set px.slowdown k slowdown;
  Float.Array.set px.rotation_ms k (m.Disk_model.rotation_ms *. slowdown)

let prices (m : Disk_model.t) =
  let in_range r = r >= m.Disk_model.rpm_min && r <= m.Disk_model.rpm_max in
  let step = m.Disk_model.rpm_step in
  let rec count k =
    let r = m.Disk_model.rpm_max - (k * step) in
    if in_range r && (k = 0 || step > 0) then count (k + 1) else k
  in
  let levels = count 0 in
  (* A distance of each seek class: sequential, a short hop, far. *)
  let class_distance = [| 0; 1; max_int |] in
  let table () = Float.Array.make (levels + 1) 0.0 in
  let px =
    {
      model = m;
      top = m.Disk_model.rpm_max;
      step;
      levels;
      idle_w = table ();
      active_w = table ();
      slowdown = table ();
      rotation_ms = table ();
      seek_ms =
        Float.Array.init 3 (fun c -> Disk_model.seek_ms_of_distance m class_distance.(c));
      transfer = m.Disk_model.transfer_mb_s *. 1024.0 *. 1024.0;
      level_s = Disk_model.drpm_level_transition_s m;
    }
  in
  for k = 0 to levels - 1 do
    fill px k (m.Disk_model.rpm_max - (k * step))
  done;
  px

(* Price [rpm] into the spare slot, or raise as [Disk_model] does. *)
let spare px rpm =
  fill px px.levels rpm;
  px.levels

(* The table slot of a speed. *)
let[@inline] slot px rpm =
  let d = px.top - rpm in
  if d = 0 && px.levels > 0 then 0
  else if d > 0 && px.levels > 1 && d mod px.step = 0 && d / px.step < px.levels then
    d / px.step
  else spare px rpm

let[@inline] idle_w px rpm = Float.Array.get px.idle_w (slot px rpm)
let[@inline] active_w px rpm = Float.Array.get px.active_w (slot px rpm)

let[@inline] service_price px ~seek_distance ~rpm ~bytes =
  let l = slot px rpm in
  Float.Array.get px.seek_ms (Disk_model.seek_class seek_distance)
  +. Float.Array.get px.rotation_ms l
  +. (float_of_int bytes /. px.transfer *. 1000.0 *. Float.Array.get px.slowdown l)

(* [Disk_model.drpm_transition_j]'s operations, on the tabled watts. *)
let[@inline] transition_j px ~rpm_from ~rpm_to =
  let levels = abs (rpm_to - rpm_from) / px.step in
  let faster = Int.max rpm_from rpm_to in
  float_of_int levels *. px.level_s *. active_w px faster

(* [Float.max]'s body: the stdlib's is a call from here, and its result
   a boxed float. *)
let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if x <> x then x else y
  else if y <> y then y
  else x

(* The float accumulators of one disk.  A record of floats only is
   stored flat, so updating a field writes the float in place; as fields
   of [disk_state], which also holds ints, lists and a sink, every update
   would allocate a boxed float. *)
type floats = {
  mutable now : float;  (* time up to which the timeline is accounted *)
  mutable energy : float;
  mutable busy : float;
  mutable idle : float;
  mutable standby : float;
  mutable transition : float;
  mutable degraded : float;  (* ms attributable to injected faults *)
  mutable resp_total : float;
  mutable resp_max : float;
  (* DRPM window accounting *)
  mutable win_resp : float;
  mutable win_nominal : float;
  mutable cursor : float;  (* gap fold: the end of the latest busy span *)
}

(* Mutable per-disk simulation state. *)
type disk_state = {
  id : int;
  f : floats;
  px : prices;  (* the run's, shared by its disks *)
  mutable rpm : int;  (* current rotation speed (DRPM); rpm_max otherwise *)
  mutable reqs : int;
  mutable downs : int;
  mutable ups : int;
  mutable shifts : int;
  mutable su_retries : int;  (* failed spin-up attempts (fault-injected) *)
  mutable m_retries : int;  (* media-error request re-services *)
  mutable spikes : int;  (* servo recalibration stalls *)
  (* The repair domain's actions on this disk: [Repair] keeps the media
     state, the engine counts what it charges. *)
  mutable remapped : int;  (* bad blocks remapped to spares, foreground and scrub *)
  mutable detours : int;  (* accesses that paid the remapped-block detour *)
  mutable scrubbed : int;  (* scrub chunks read *)
  mutable found : int;  (* bad blocks the scrubber found and remapped *)
  mutable recons : int;  (* reads served for a failed mirror *)
  mutable slices : int;  (* rebuild slices copied onto the hot spare *)
  mutable failed_over : int;  (* deadline-abandoned requests read from the mirror *)
  mutable failures : int;  (* times the slot was retired *)
  mutable rebuilt : int;  (* rebuilds completed *)
  mutable win_count : int;  (* requests in the current DRPM window *)
  mutable last_end : int;  (* address right after the previous request; -1 initially *)
  mutable hints : Hint.t list;  (* pending compiler directives, by nominal time *)
  mutable sink : Sink.t;
      (* observability recorder; Sink.null by default.  Mutable because
         a sharded segment temporarily points the disks of a parallel
         group at a per-group buffering sink (see [simulate]); set it
         with [set_sink]. *)
  mutable live : bool;  (* Sink.enabled sink, read on every charge *)
  fold : bool;  (* fold the idle gaps between busy spans into [gap_len] *)
  gap_len : Float.Array.t;
  mutable gaps : int;  (* folded so far *)
}

let make_state ?(sink = Sink.null) ~gap_room px id =
  {
    id;
    f =
      {
        now = 0.0;
        energy = 0.0;
        busy = 0.0;
        idle = 0.0;
        standby = 0.0;
        transition = 0.0;
        degraded = 0.0;
        resp_total = 0.0;
        resp_max = 0.0;
        win_resp = 0.0;
        win_nominal = 0.0;
        cursor = 0.0;
      };
    px;
    rpm = px.model.Disk_model.rpm_max;
    reqs = 0;
    downs = 0;
    ups = 0;
    shifts = 0;
    su_retries = 0;
    m_retries = 0;
    spikes = 0;
    remapped = 0;
    detours = 0;
    scrubbed = 0;
    found = 0;
    recons = 0;
    slices = 0;
    failed_over = 0;
    failures = 0;
    rebuilt = 0;
    win_count = 0;
    last_end = -1;
    hints = [];
    sink;
    live = Sink.enabled sink;
    fold = gap_room > 0;
    gap_len = Float.Array.create gap_room;
    gaps = 0;
  }

let set_sink st sink =
  st.sink <- sink;
  st.live <- Sink.enabled sink

(* The persistent-failure machinery of one run: the repair state machine
   (bad-sector maps, spare pools, scrub cursors, rebuild progress), the
   per-request deadline (when serving under one), and — once the states
   exist — the per-disk states themselves, so a deadline failover can
   charge the mirror read on the mirror's own timeline. *)
type repair_run = {
  rc : Repair.t;
  deadline_ms : float option;
  mutable peers : disk_state array;
}

let ms_of_s s = s *. 1000.0
let energy_j_of ~watts ~ms = watts *. ms /. 1000.0

(* A charge names its power state by a constant constructor; only a live
   sink gets the [Obs_event] state, with [Idle] at the disk's current
   speed. *)
type power = Active | Idle | Standby | Transition

let emit_power st state ~ms ~energy =
  Sink.emit st.sink
    (Obs_event.Power
       {
         disk = st.id;
         state =
           (match state with
           | Active -> Obs_event.Active
           | Idle -> Obs_event.Idle st.rpm
           | Standby -> Obs_event.Standby
           | Transition -> Obs_event.Transition);
         start_ms = st.f.now;
         stop_ms = st.f.now +. ms;
         charge_ms = ms;
         energy_j = energy;
       })

(* The one charge path: every millisecond and joule the simulation
   accounts goes through here.  From the same [ms] it adds to the
   state's statistic, the energy total and the disk's clock, and emits
   the [Power] span, so the spans are the disk's whole timeline (the
   conservation invariant the tests check).  A lump charge with no
   duration (a speed change overlapped with servicing) is a zero-length
   span.  [charge_ms] is [ms] exactly as the statistic adds it ([stop_ms
   -. start_ms] may round differently), so a sink can reproduce the
   per-state stats bit for bit. *)
let[@inline] charge st state ~ms ~energy =
  (match state with
  | Active -> st.f.busy <- st.f.busy +. ms
  | Idle -> st.f.idle <- st.f.idle +. ms
  | Standby -> st.f.standby <- st.f.standby +. ms
  | Transition -> st.f.transition <- st.f.transition +. ms);
  st.f.energy <- st.f.energy +. energy;
  if st.live then emit_power st state ~ms ~energy;
  st.f.now <- st.f.now +. ms

let decision st d =
  if st.live then
    Sink.emit st.sink (Obs_event.Decision { disk = st.id; at_ms = st.f.now; decision = d })

let fault_event st ~at ~kind ~cost =
  if st.live then
    Sink.emit st.sink (Obs_event.Fault { disk = st.id; at_ms = at; kind; cost_ms = cost })

let repair_event st ~at ~op ~blocks ~cost =
  if st.live then
    Sink.emit st.sink
      (Obs_event.Repair { disk = st.id; at_ms = at; op; blocks; cost_ms = cost })

(* Idle at the current speed for [ms], unconditionally: a zero-length
   backoff is still a span. *)
let[@inline] charge_idle st ms =
  charge st Idle ~ms ~energy:(energy_j_of ~watts:(idle_w st.px st.rpm) ~ms)

let[@inline] spend_idle st ms = if ms > 0.0 then charge_idle st ms

let spend_standby model st ms =
  if ms > 0.0 then
    charge st Standby ~ms ~energy:(energy_j_of ~watts:model.Disk_model.power_standby_w ~ms)

(* The reference's gap fold over a disk's busy spans, [start_ms, stop_ms]
   in charge order: an idle gap is the stretch from the end of the
   latest span to a span that starts more than [gap_eps] later.  Only
   the lengths are kept, the oracle's bound reads nothing else, in a
   float column sized once (see [replay_gaps]), so folding a gap
   boxes nothing. *)
let gap_eps = 1e-6

let[@inline] add_gap st len_ms =
  Float.Array.set st.gap_len st.gaps len_ms;
  st.gaps <- st.gaps + 1

let[@inline] fold_gap st ~start_ms ~stop_ms =
  if start_ms > st.f.cursor +. gap_eps then add_gap st (start_ms -. st.f.cursor);
  st.f.cursor <- fmax st.f.cursor stop_ms

(* Active at [rpm] for [ms]: a service and its re-reads run at the
   serving speed; scrub reads, rebuild writes and mirror failover reads
   at the owning disk's current speed. *)
let[@inline] charge_busy st ~rpm ~degraded ms =
  if degraded then st.f.degraded <- st.f.degraded +. ms;
  if st.fold then fold_gap st ~start_ms:st.f.now ~stop_ms:(st.f.now +. ms);
  charge st Active ~ms ~energy:(energy_j_of ~watts:(active_w st.px rpm) ~ms)

(* --- fault-aware primitive transitions --- *)

(* A spin-down always runs to completion, and an arrival that lands
   inside it waits, so the whole spin-down is charged however little of
   the gap was left. *)
let spin_down model st =
  st.downs <- st.downs + 1;
  charge st Transition ~ms:(ms_of_s model.Disk_model.spin_down_s)
    ~energy:model.Disk_model.spin_down_j

(* One full spin-up, in time and energy. *)
let charge_spin_up model st =
  charge st Transition ~ms:(ms_of_s model.Disk_model.spin_up_s)
    ~energy:model.Disk_model.spin_up_j

(* Bring the platters back to speed.  Under injected spin-up faults the
   motor needs [failures] extra attempts, each costing a full spin-up in
   both time and energy, before the one that succeeds — the retry budget
   of the policy bounds them, so the spin-up always completes. *)
let spin_up model fctx st =
  let su_ms = ms_of_s model.Disk_model.spin_up_s in
  let failures =
    match fctx with
    | None -> 0
    | Some { inj; retry } ->
        Injector.spin_up_failures inj ~disk:st.id
          ~max_failures:(retry.Policy.max_attempts - 1)
  in
  for _ = 1 to failures do
    let at = st.f.now in
    charge_spin_up model st;
    st.su_retries <- st.su_retries + 1;
    st.f.degraded <- st.f.degraded +. su_ms;
    fault_event st ~at ~kind:"spin-up-retry" ~cost:su_ms
  done;
  charge_spin_up model st;
  st.ups <- st.ups + 1

(* Consult-and-maybe-trigger: a stuck-RPM fault pins the speed for a
   window, refusing the attempted transition. *)
let shift_refused fctx st =
  match fctx with
  | None -> false
  | Some { inj; _ } -> Injector.rpm_locked inj ~disk:st.id ~now_ms:st.f.now

let serving_degraded fctx st =
  match fctx with
  | None -> false
  | Some { inj; _ } -> Injector.is_locked inj ~disk:st.id ~now_ms:st.f.now

(* --- persistent-failure machinery (scrub / failover / rebuild) --- *)

(* Background scrubber: verification reads over the idle window ending
   at [until], bounded by the per-gap budget and preempted by the next
   foreground arrival — a chunk is committed only when its full cost
   (sequential read + any remap writes it triggers) fits both limits, so
   scrubbing never delays an arrival.  Runs before the policy's gap
   handler, which then manages whatever window remains. *)
let scrub_gap model rx st ~until =
  let cfg = Repair.cfg rx.rc in
  let budget = cfg.Repair.scrub_budget_ms in
  if budget > 0.0 && not (Repair.is_failed rx.rc st.id) then begin
    let spent = ref 0.0 in
    let continue_ = ref true in
    while !continue_ do
      let chunk, found = Repair.scrub_peek rx.rc ~disk:st.id ~spare:model.Disk_model.spare_blocks in
      let read_ms =
        service_price st.px ~seek_distance:max_int ~rpm:st.rpm
          ~bytes:(chunk * cfg.Repair.block_bytes)
      in
      let cost =
        read_ms
        +. float_of_int found
           *. Disk_model.remap_ms model ~rpm:st.rpm ~block_bytes:cfg.Repair.block_bytes
      in
      if !spent +. cost <= budget && st.f.now +. cost <= until then begin
        let found, pass_done =
          Repair.scrub_commit rx.rc ~disk:st.id ~spare:model.Disk_model.spare_blocks
        in
        st.scrubbed <- st.scrubbed + 1;
        st.found <- st.found + found;
        st.remapped <- st.remapped + found;
        repair_event st ~at:st.f.now ~op:"scrub" ~blocks:chunk ~cost;
        charge_busy st ~rpm:st.rpm ~degraded:false cost;
        if pass_done then
          repair_event st ~at:st.f.now ~op:"scrub-pass" ~blocks:cfg.Repair.surface_blocks
            ~cost:0.0;
        spent := !spent +. cost
      end
      else continue_ := false
    done
  end

(* One rebuild slice copies [rebuild_chunk_blocks] from the mirror onto
   the hot spare occupying the failed slot; the factor 2 folds the
   mirror's read half into the slot's own timeline so the copy is
   charged exactly once. *)
let rebuild_slice_ms rx st =
  let cfg = Repair.cfg rx.rc in
  let bytes = cfg.Repair.rebuild_chunk_blocks * cfg.Repair.block_bytes in
  2.0 *. service_price st.px ~seek_distance:max_int ~rpm:st.rpm ~bytes

(* Advance the rebuild stream on a failed slot up to [until]: whole
   slices only, so the slot's timeline never overruns the foreground
   clock that called us. *)
let advance_rebuild rx st ~until =
  let cfg = Repair.cfg rx.rc in
  let continue_ = ref true in
  while !continue_ && Repair.is_failed rx.rc st.id do
    let slice = rebuild_slice_ms rx st in
    if st.f.now +. slice <= until then begin
      repair_event st ~at:st.f.now ~op:"rebuild" ~blocks:cfg.Repair.rebuild_chunk_blocks
        ~cost:slice;
      charge_busy st ~rpm:st.rpm ~degraded:true slice;
      st.slices <- st.slices + 1;
      if Repair.rebuild_step rx.rc ~disk:st.id ~blocks:cfg.Repair.rebuild_chunk_blocks
      then begin
        st.rebuilt <- st.rebuilt + 1;
        repair_event st ~at:st.f.now ~op:"rebuild-complete" ~blocks:cfg.Repair.rebuild_blocks
          ~cost:0.0;
        decision st "repair:rebuild-complete"
      end
    end
    else continue_ := false
  done

(* Retire a slot onto its hot spare: the spare spins up from rest (a
   full spin-up charge over-covers any DRPM level difference) and takes
   over at full speed with an unknown head position. *)
let fail_disk model rx st =
  Repair.mark_failed rx.rc ~disk:st.id;
  st.failures <- st.failures + 1;
  let su_ms = ms_of_s model.Disk_model.spin_up_s in
  repair_event st ~at:st.f.now ~op:"disk-failed" ~blocks:0 ~cost:su_ms;
  decision st "repair:hot-spare-activate";
  charge_spin_up model st;
  st.ups <- st.ups + 1;
  st.rpm <- model.Disk_model.rpm_max;
  st.last_end <- -1

(* Deadline failover: the origin disk abandons its retry storm and the
   mirror serves a clean re-read on its {e own} timeline (wherever its
   clock stands — always its frontier, so contiguity holds).  Returns
   the extra response milliseconds the client observes. *)
let failover_read rx origin ~bytes =
  match Repair.mirror_of rx.rc origin.id with
  | Some m when not (Repair.is_failed rx.rc m) ->
      let peer = rx.peers.(m) in
      let ms = service_price peer.px ~seek_distance:max_int ~rpm:peer.rpm ~bytes in
      repair_event origin ~at:origin.f.now ~op:"failover" ~blocks:0 ~cost:ms;
      charge_busy peer ~rpm:peer.rpm ~degraded:true ms;
      origin.failed_over <- origin.failed_over + 1;
      Some ms
  | _ -> None

(* --- compiler hints: consume the directives addressed to a gap --- *)

(* Hints are timestamped on the nominal (full-speed) timeline and so is
   every request's [arrival_ms]; matching on nominal time keeps the
   routing immune to closed-loop drift between nominal and actual
   clocks.  Directives taken with [~executed:false] leave the queue
   without a [Hint_exec] event: the caller drops them. *)
let take_hints ~executed st ~upto =
  let rec go acc = function
    | (h : Hint.t) :: rest when h.Hint.at_ms <= upto +. 1e-9 ->
        if executed && st.live then
          Sink.emit st.sink
            (Obs_event.Hint_exec
               { disk = st.id; at_ms = h.Hint.at_ms; action = Hint.action_name h.Hint.action });
        go (h :: acc) rest
    | rest ->
        st.hints <- rest;
        List.rev acc
  in
  go [] st.hints

let hint_spin_down hs = List.exists (fun (h : Hint.t) -> h.Hint.action = Hint.Spin_down) hs

(* The first [Pre_spin_up] lead, 0 without one: a spin-up that starts
   at the arrival. *)
let rec hint_lead = function
  | { Hint.action = Hint.Pre_spin_up l; _ } :: _ -> l
  | _ :: rest -> hint_lead rest
  | [] -> 0.0

let hint_target_rpm hs =
  List.find_map
    (fun (h : Hint.t) ->
      match h.Hint.action with Hint.Set_rpm r -> Some r | _ -> None)
    hs

(* --- idle-window mechanisms: advance the state from st.f.now to [until] --- *)

(* Spin down after [threshold] ms of continuous idleness (13 J / 1.5 s),
   then stay in standby: reactive TPM with its configured threshold and
   the online [Spin] arm with its learned one.  Returns [true] when the
   disk ends the window spun down; the next arrival then pays the
   spin-up. *)
let[@inline] spin_after model st ~until ~threshold ~label =
  let gap = until -. st.f.now in
  if gap <= threshold then begin
    spend_idle st gap;
    false
  end
  else begin
    spend_idle st threshold;
    decision st label;
    spin_down model st;
    (* If the next arrival lands inside the spin-down, st.f.now already
       passed [until]; the standby span is empty. *)
    spend_standby model st (until -. st.f.now);
    true
  end

(* Directed TPM, one executor for hinted and planned TPM: when [go],
   spin down at the start of the window and, when the window is
   interior, start the spin-up [lead] ms before the next arrival.  A
   lead of 0 starts it at the arrival, which then stalls: hiding the
   latency is exactly what the [Pre_spin_up] hint exists for.  There is
   no threshold heuristic here; whoever set [go] decided.  Closed-loop
   drift can shrink a hinted window below what the compiler saw on the
   nominal timeline, so a directive that no longer fits is refused.  An
   injected spin-up failure can still push the completion past the
   arrival, which the service absorbs as a (bounded) stall. *)
let[@inline] tpm_directed model fctx st ~until ~terminal ~go ~lead ~label =
  let gap = until -. st.f.now in
  let sd_ms = ms_of_s model.Disk_model.spin_down_s in
  let su_ms = ms_of_s model.Disk_model.spin_up_s in
  let feasible = if terminal then gap >= sd_ms else gap >= sd_ms +. su_ms in
  if not (go && feasible) then begin
    if go then decision st "tpm:hint-infeasible";
    spend_idle st gap
  end
  else begin
    decision st label;
    spin_down model st;
    if terminal then spend_standby model st (until -. st.f.now)
    else begin
      spend_standby model st (fmax st.f.now (until -. lead) -. st.f.now);
      spin_up model fctx st;
      (* A generous lead brings the platters up early: idle at speed. *)
      if until > st.f.now then spend_idle st (until -. st.f.now)
    end
  end

(* DRPM: step the speed down one level per [downshift_idle_ms] of
   continuous idleness (plus the transition itself), then idle at the
   reached speed.  An [overlapped] shift runs under a service, so only
   its energy is charged. *)
let drpm_shift ?(overlapped = false) st ~rpm_to =
  let ms = if overlapped then 0.0 else ms_of_s st.px.level_s in
  charge st Transition ~ms
    ~energy:(transition_j st.px ~rpm_from:st.rpm ~rpm_to);
  st.rpm <- rpm_to;
  st.shifts <- st.shifts + 1

(* A speed change that a stuck-RPM fault may refuse; [true] when the
   shift happened. *)
let try_drpm_shift ?overlapped fctx st ~rpm_to =
  if shift_refused fctx st then begin
    fault_event st ~at:st.f.now ~kind:"stuck-rpm" ~cost:0.0;
    false
  end
  else begin
    drpm_shift ?overlapped st ~rpm_to;
    true
  end

(* After a request served below full speed, ramp back one level: the
   transition overlaps servicing (the low-overhead dynamic-RPM design
   of Gurumurthi et al.), so only its energy is charged — unless a
   stuck-RPM fault refuses the shift. *)
let recover_one_level model fctx st =
  if st.rpm < model.Disk_model.rpm_max then begin
    let rpm_to = st.rpm + model.Disk_model.rpm_step in
    if
      try_drpm_shift ~overlapped:true fctx st ~rpm_to
      && rpm_to = model.Disk_model.rpm_max
    then st.ups <- st.ups + 1
  end

let drpm_floor model (cfg : Policy.drpm_config) =
  match cfg.Policy.min_rpm with
  | Some r -> max r model.Disk_model.rpm_min
  | None -> model.Disk_model.rpm_min

let[@inline] gap_drpm model (cfg : Policy.drpm_config) fctx st ~until =
  let continue = ref true in
  let first = ref true in
  let floor_rpm = drpm_floor model cfg in
  while !continue do
    let remaining = until -. st.f.now in
    let next_rpm = st.rpm - model.Disk_model.rpm_step in
    (* Hysteresis against thrash: the first downshift of a gap waits
       twice the per-level idle threshold. *)
    let wait =
      if !first then 2.0 *. cfg.Policy.downshift_idle_ms else cfg.Policy.downshift_idle_ms
    in
    if
      next_rpm >= floor_rpm
      && remaining >= wait +. ms_of_s st.px.level_s
    then begin
      if shift_refused fctx st then begin
        (* Stuck: pinned at the current level; idle out the gap. *)
        fault_event st ~at:st.f.now ~kind:"stuck-rpm" ~cost:0.0;
        continue := false
      end
      else begin
        spend_idle st wait;
        decision st "drpm:idle-downshift";
        drpm_shift st ~rpm_to:next_rpm;
        first := false
      end
    end
    else continue := false
  done;
  if until > st.f.now then spend_idle st (until -. st.f.now)

(* Compiler-directed DRPM (proactive): the gap's speed trajectory is
   planned — drop straight to the deepest level whose down-and-up round
   trip (plus a dwell of one downshift threshold) fits the gap, idle
   there, and be back at full speed exactly at the next arrival.  A
   [Set_rpm] hint caps the dip at the compiler's target speed (computed
   from the nominal gap); feasibility against the actual gap still
   rules, so a drifted gap degrades to a shallower dip, never a stall.
   A stuck-RPM fault interrupting either ramp pins the trajectory at the
   reached level: the disk idles there and serves degraded — slow, never
   stalled. *)
let gap_drpm_proactive ?target_rpm model (cfg : Policy.drpm_config) fctx st ~until ~terminal =
  let gap = until -. st.f.now in
  if gap <= 0.0 then ()
  else begin
    let step_ms = ms_of_s st.px.level_s in
    let floor_rpm =
      match target_rpm with
      | Some r -> max (drpm_floor model cfg) (min r model.Disk_model.rpm_max)
      | None -> drpm_floor model cfg
    in
    let max_levels = (st.rpm - floor_rpm) / model.Disk_model.rpm_step in
    let fits levels =
      let ramp = float_of_int levels *. step_ms in
      gap >= (2.0 *. ramp) +. cfg.Policy.downshift_idle_ms
    in
    let rec deepest l = if l > 0 && not (fits l) then deepest (l - 1) else l in
    let levels = deepest max_levels in
    if levels = 0 then spend_idle st gap
    else begin
      decision st
        (match target_rpm with Some _ -> "drpm:hint-dip" | None -> "drpm:planned-dip");
      let top = st.rpm in
      let low = st.rpm - (levels * model.Disk_model.rpm_step) in
      (* Ramp down... *)
      let rec down () =
        let rpm_to = st.rpm - model.Disk_model.rpm_step in
        if st.rpm > low && try_drpm_shift fctx st ~rpm_to then down ()
      in
      down ();
      if terminal then begin
        (* No next request: stay low to the end of the window. *)
        if until > st.f.now then spend_idle st (until -. st.f.now)
      end
      else begin
        (* ...idle at the reached floor, then ramp up to finish at
           [until]. *)
        let ramp_up =
          float_of_int ((top - st.rpm) / model.Disk_model.rpm_step) *. step_ms
        in
        if until -. ramp_up > st.f.now then spend_idle st (until -. ramp_up -. st.f.now);
        let rec up () =
          let rpm_to = st.rpm + model.Disk_model.rpm_step in
          if st.rpm < top && try_drpm_shift fctx st ~rpm_to then up ()
        in
        up ();
        (* A refused up-shift leaves the disk below speed and behind
           plan: idle out the remainder at the pinned level (the next
           request is then served degraded). *)
        if until -. st.f.now > 1e-9 then spend_idle st (until -. st.f.now)
        else st.f.now <- fmax st.f.now until
      end
    end
  end

(* The online [Dip]: after the learned threshold, ramp down level by
   level toward [target_rpm] and dwell.  The predicted gap may overshoot
   the real one, so feasibility is re-checked per level, and the
   stuck-RPM injector may stop the ramp early.  The next request is
   served slow and the ramp back up overlaps servicing (the DRPM
   recovery path). *)
let online_dip model fctx st ~until ~target_rpm ~threshold =
  if until -. st.f.now <= threshold then spend_idle st (until -. st.f.now)
  else begin
    spend_idle st threshold;
    decision st "online:dip";
    let step_ms = ms_of_s st.px.level_s in
    let floor_rpm = max target_rpm model.Disk_model.rpm_min in
    let rec down () =
      let next = st.rpm - model.Disk_model.rpm_step in
      if
        next >= floor_rpm
        && until -. st.f.now >= step_ms
        && try_drpm_shift fctx st ~rpm_to:next
      then down ()
    in
    down ();
    if until > st.f.now then spend_idle st (until -. st.f.now)
  end

(* --- the gap rule --- *)

(* Advance a disk over one idle window, from st.f.now to [until], under
   [policy]: the one place a policy decides what a disk does between two
   services.  The window is interior when a request arrives at [until]
   and [terminal] after the disk's last service, up to the makespan.
   [directed] says the run's hint stream directs this proactive policy,
   and [hs] are the directives addressed to this window; without hints a
   proactive policy plans the window from the known schedule.  Returns
   [true] when the disk ends the window spun down, so that the arrival
   must pay a reactive spin-up.

   - Reactive TPM and the online [Spin] arm spin down after their
     threshold; the spin-up then stalls the arrival.
   - Proactive TPM executes the window's directives.  Planned, the
     schedule implies them: spin down when the window exceeds both the
     threshold and a full spin-down/spin-up cycle, with a lead of one
     spin-up, so the disk is back at full speed exactly at the arrival.
   - DRPM steps down one level per idle threshold; proactive DRPM plans
     one dip, capped by a [Set_rpm] directive when hinted.  No directive
     for a hinted window: the compiler planned no dip for it. *)
let[@inline] idle_window model policy ctrl fctx st hs ~directed ~until ~terminal =
  if until <= st.f.now then false
  else
    match policy with
    | Policy.No_pm ->
        spend_idle st (until -. st.f.now);
        false
    | Policy.Tpm cfg when cfg.Policy.proactive ->
        if directed then
          tpm_directed model fctx st ~until ~terminal ~go:(hint_spin_down hs)
            ~lead:(hint_lead hs) ~label:"tpm:hint-spin-down"
        else begin
          let su_ms = ms_of_s model.Disk_model.spin_up_s in
          let threshold =
            fmax (ms_of_s cfg.Policy.idle_threshold_s)
              (ms_of_s model.Disk_model.spin_down_s +. su_ms)
          in
          tpm_directed model fctx st ~until ~terminal
            ~go:(until -. st.f.now > threshold)
            ~lead:su_ms ~label:"tpm:planned-spin-down"
        end;
        false
    | Policy.Tpm cfg ->
        spin_after model st ~until
          ~threshold:(ms_of_s cfg.Policy.idle_threshold_s)
          ~label:"tpm:threshold-spin-down"
    | Policy.Adaptive _ -> (
        let ctrl = match ctrl with Some c -> c | None -> assert false in
        match Online.decide ctrl ~disk:st.id with
        | Online.Stay ->
            spend_idle st (until -. st.f.now);
            false
        | Online.Spin threshold -> spin_after model st ~until ~threshold ~label:"online:spin-down"
        | Online.Dip (target_rpm, threshold) ->
            online_dip model fctx st ~until ~target_rpm ~threshold;
            false)
    | Policy.Drpm cfg when cfg.Policy.proactive ->
        (if not directed then gap_drpm_proactive model cfg fctx st ~until ~terminal
         else
           match hint_target_rpm hs with
           | Some rpm -> gap_drpm_proactive ~target_rpm:rpm model cfg fctx st ~until ~terminal
           | None -> spend_idle st (until -. st.f.now));
        false
    | Policy.Drpm cfg ->
        gap_drpm model cfg fctx st ~until;
        false

(* --- servicing --- *)

let[@inline] serve model fctx rctx st ~proc ~arrival ~lba ~bytes ~rpm ~recon =
  let seek_distance = if st.last_end < 0 then max_int else lba - st.last_end in
  let start = fmax arrival st.f.now in
  (* The disk is idle between st.f.now and a later start only when it was
     left ready before the arrival; the gap rule already advanced
     st.f.now to the arrival, so any remainder here is spin-up overhang
     (st.f.now > arrival) or zero. *)
  if start > st.f.now then spend_idle st (start -. st.f.now);
  (* Servo recalibration: an injected latency spike stalls the head
     (at active power) before the transfer begins. *)
  (match fctx with
  | None -> ()
  | Some { inj; _ } ->
      let spike = Injector.latency_spike_ms inj ~disk:st.id in
      if spike > 0.0 then begin
        st.spikes <- st.spikes + 1;
        fault_event st ~at:st.f.now ~kind:"latency-spike" ~cost:spike;
        charge_busy st ~rpm ~degraded:true spike
      end);
  let service = service_price st.px ~seek_distance ~rpm ~bytes in
  st.last_end <- lba + bytes;
  let stuck_slow = serving_degraded fctx st && rpm < model.Disk_model.rpm_max in
  charge_busy st ~rpm ~degraded:stuck_slow service;
  (* Persistent media decay: one seed-driven draw per service may grow a
     new bad sector somewhere on the surface; the first foreground touch
     of a bad block pays the remap (extra seek + spare write), later
     touches the shorter redirect penalty — the arXiv 1908.01167 cost
     shape. *)
  (match rctx with
  | None -> ()
  | Some rx ->
      let cfg = Repair.cfg rx.rc in
      (match fctx with
      | Some { inj; _ } -> (
          match Injector.decay_defect inj ~disk:st.id ~surface:cfg.Repair.surface_blocks with
          | Some block -> Repair.grow rx.rc ~disk:st.id ~block
          | None -> ())
      | None -> ());
      let touch =
        Repair.touch rx.rc ~disk:st.id ~spare:model.Disk_model.spare_blocks ~lba ~bytes
      in
      if touch.Repair.remapped > 0 then begin
        st.remapped <- st.remapped + touch.Repair.remapped;
        let ms =
          float_of_int touch.Repair.remapped
          *. Disk_model.remap_ms model ~rpm ~block_bytes:cfg.Repair.block_bytes
        in
        repair_event st ~at:st.f.now ~op:"remap" ~blocks:touch.Repair.remapped ~cost:ms;
        charge_busy st ~rpm ~degraded:true ms
      end;
      if touch.Repair.penalty_hits > 0 then begin
        st.detours <- st.detours + touch.Repair.penalty_hits;
        charge_busy st ~rpm ~degraded:true
          (float_of_int touch.Repair.penalty_hits *. model.Disk_model.remap_penalty_ms)
      end;
      if recon then begin
        (* Degraded read: routed here because the home disk failed; the
           mirrored copy costs an extra head detour. *)
        st.recons <- st.recons + 1;
        repair_event st ~at:st.f.now ~op:"reconstruct"
          ~blocks:((bytes + cfg.Repair.block_bytes - 1) / cfg.Repair.block_bytes)
          ~cost:model.Disk_model.remap_penalty_ms;
        charge_busy st ~rpm ~degraded:true model.Disk_model.remap_penalty_ms
      end);
  (* Transient media errors: re-service (no seek — the head is already
     there) after a bounded exponential backoff per retry.  Under a
     deadline, a retry storm that has already blown it is abandoned and
     the request fails over to the mirror (when one is healthy). *)
  let extra = ref 0.0 in
  (match fctx with
  | None -> ()
  | Some { inj; retry } ->
      let retries =
        Injector.media_retries inj ~disk:st.id ~max_retries:(retry.Policy.max_attempts - 1)
      in
      if retries > 0 then begin
        let reread = service_price st.px ~seek_distance:0 ~rpm ~bytes in
        (try
        for attempt = 1 to retries do
          (match rctx with
          | Some ({ deadline_ms = Some d; _ } as rx) when st.f.now -. arrival > d -> (
              match failover_read rx st ~bytes with
              | Some ms ->
                  extra := ms;
                  raise_notrace Exit
              | None -> ())
          | _ -> ());
          let backoff = Policy.backoff_ms retry ~attempt in
          st.m_retries <- st.m_retries + 1;
          st.f.degraded <- st.f.degraded +. backoff +. reread;
          fault_event st ~at:st.f.now ~kind:"media-retry" ~cost:(backoff +. reread);
          (* The platters keep spinning while the controller backs off:
             idle power at the current speed. *)
          charge_idle st backoff;
          charge_busy st ~rpm ~degraded:false reread
        done
        with Exit -> ())
      end);
  (* [extra] is 0.0 on every non-failover path, so [x +. 0.0] keeps the
     response and completion stamps bit-identical to the clean engine. *)
  let response = st.f.now -. arrival +. !extra in
  st.reqs <- st.reqs + 1;
  st.f.resp_total <- st.f.resp_total +. response;
  if response > st.f.resp_max then st.f.resp_max <- response;
  if st.live then
    Sink.emit st.sink
      (Obs_event.Service
         {
           disk = st.id;
           proc;
           arrival_ms = arrival;
           start_ms = start;
           stop_ms = st.f.now +. !extra;
           lba;
           bytes;
         });
  (* A miss is stamped on this disk's clock, where a failed-over request
     abandoned its retries: the mirror's read time would stamp it past
     later misses on this disk. *)
  (match rctx with
  | Some { deadline_ms = Some d; _ } when response > d ->
      if st.live then
        Sink.emit st.sink
          (Obs_event.Deadline
             {
               disk = st.id;
               proc;
               at_ms = st.f.now;
               response_ms = response;
               deadline_ms = d;
             })
  | _ -> ());
  response

(* DRPM window bookkeeping: after [window_size] requests compare the
   window's average response with its full-speed service average and
   shift up one level on degradation beyond the tolerance. *)
let[@inline] drpm_window model (cfg : Policy.drpm_config) fctx st ~response ~nominal =
  st.win_count <- st.win_count + 1;
  st.f.win_resp <- st.f.win_resp +. response;
  st.f.win_nominal <- st.f.win_nominal +. nominal;
  if st.win_count >= cfg.Policy.window_size then begin
    let avg = st.f.win_resp /. float_of_int st.win_count in
    let nominal = st.f.win_nominal /. float_of_int st.win_count in
    (* On degradation beyond the tolerance the controller orders the
       disk back to full speed (Gurumurthi et al.) — unless a stuck-RPM
       fault refuses the command. *)
    if avg > cfg.Policy.tolerance *. nominal && st.rpm < model.Disk_model.rpm_max then begin
      decision st "drpm:window-upshift";
      if try_drpm_shift fctx st ~rpm_to:model.Disk_model.rpm_max then
        st.ups <- st.ups + 1
    end;
    st.win_count <- 0;
    st.f.win_resp <- 0.0;
    st.f.win_nominal <- 0.0
  end

(* Serve request [i] of the trace, processor [proc]'s, issued at [issue]
   (closed-loop actual time): take the directives addressed to its
   window, run the window under the gap rule, pay a reactive spin-up if
   the window left the disk spun down, serve, and keep the speed
   bookkeeping.  [directed] says the run's hint stream directs this
   proactive policy.  Returns the response time. *)
let[@inline] handle_request model policy ctrl fctx rctx st (t : Trace.t) i ~proc ~issue
    ~directed ~recon =
  (* The compiler's speed directive assumed a disk that obeys speed
     commands; a stuck-RPM window invalidates it.  Degrade to the
     reactive twin for this request, which drops the window's
     directives: idle or serve slow, recover once the window expires —
     never stall. *)
  let fallback =
    match policy with
    | Policy.Drpm cfg -> cfg.Policy.proactive && directed && serving_degraded fctx st
    | _ -> false
  in
  (* A window that closes before it opens (the disk is still busy at
     the issue) drops its directives too; only the others are logged. *)
  let executed = (not fallback) && issue > st.f.now in
  let hs =
    if directed then take_hints ~executed st ~upto:(Float.Array.get t.arrival i) else []
  in
  let policy = if fallback then Policy.reactive_fallback policy else policy in
  if idle_window model policy ctrl fctx st hs ~directed ~until:issue ~terminal:false then begin
    (* Reactive spin-up: starts at the arrival (or at the end of an
       in-flight spin-down), delays the service. *)
    st.f.now <- fmax st.f.now issue;
    spin_up model fctx st
  end;
  (* Feed the online controller the arrival it just witnessed; the
     decision it derives (at an epoch boundary) governs future gaps. *)
  (match ctrl with Some c -> Online.observe c ~disk:st.id ~now_ms:issue | None -> ());
  let prev_end = st.last_end in
  let lba = t.lba.(i) and bytes = t.size.(i) in
  let response =
    serve model fctx rctx st ~proc ~arrival:issue ~lba ~bytes ~rpm:st.rpm ~recon
  in
  (* A request served below full speed (after a DRPM or online dip)
     ramps back one level; at full speed this is a no-op. *)
  recover_one_level model fctx st;
  (match policy with
  | Policy.Drpm cfg ->
      let seek_distance = if prev_end < 0 then max_int else lba - prev_end in
      drpm_window model cfg fctx st ~response
        ~nominal:
          (service_price st.px ~seek_distance ~rpm:model.Disk_model.rpm_max ~bytes)
  | _ -> ());
  response

(* Trailing window: account the timeline from the last completion to the
   global makespan, with no arrival to terminate the gap. *)
let handle_trailing model policy ctrl fctx st ~until ~directed =
  if until > st.f.now then begin
    let hs = if directed then take_hints ~executed:true st ~upto:infinity else [] in
    ignore (idle_window model policy ctrl fctx st hs ~directed ~until ~terminal:true)
  end;
  (* A TPM spin-down may overshoot [until]; clamp for reporting. *)
  if st.f.now > until then st.f.now <- until

let stats_of_state st ~last_completion =
  {
    disk = st.id;
    requests = st.reqs;
    energy_j = st.f.energy;
    busy_ms = st.f.busy;
    idle_ms = st.f.idle;
    standby_ms = st.f.standby;
    transition_ms = st.f.transition;
    spin_downs = st.downs;
    spin_ups = st.ups;
    speed_changes = st.shifts;
    spin_up_retries = st.su_retries;
    media_retries = st.m_retries;
    latency_spikes = st.spikes;
    degraded_ms = st.f.degraded;
    remaps = st.remapped;
    remap_penalty_hits = st.detours;
    scrub_chunks = st.scrubbed;
    scrub_found = st.found;
    reconstructions = st.recons;
    rebuild_chunks = st.slices;
    failovers = st.failed_over;
    disk_failures = st.failures;
    rebuilds_completed = st.rebuilt;
    response_ms_total = st.f.resp_total;
    response_ms_max = st.f.resp_max;
    last_completion_ms = last_completion;
  }

let wear_fraction model stats =
  float_of_int stats.spin_downs /. float_of_int model.Disk_model.rated_start_stop_cycles

(* --- sharding: per-segment connected components --- *)

(* A shard group is a set of processors plus the set of disks they can
   possibly touch this segment (their request targets, closed under
   mirror pairing when the repair domain is armed, since failover and
   reconstruction route a request to its mirror).  Two groups share no
   mutable state — disjoint processors, clocks, disk states, injector
   and repair slots — so groups run on separate domains and the result
   is the serial result bit for bit.  Both lists ascend, the order the
   serial engine visits processors and disks in. *)
type shard_group = { g_procs : int list; g_disks : int array }

let shard_groups ~n_proc ~disks ~mirror ~order ~disk ~cursor ~stop =
  let n = n_proc + disks in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb
  in
  for p = 0 to n_proc - 1 do
    for i = cursor.(p) to stop.(p) - 1 do
      union p (n_proc + disk.(order.(i)))
    done
  done;
  (match mirror with
  | Some mirror_of ->
      for d = 0 to disks - 1 do
        match mirror_of d with Some m when m <> d -> union (n_proc + d) (n_proc + m) | _ -> ()
      done
  | None -> ());
  let groups : (int, int list * int list) Hashtbl.t = Hashtbl.create 16 in
  (* Descending passes cons up ascending member lists; processors with
     no requests this segment never issue and are left out of every
     group, as are the disk-only components they would leave
     behind. *)
  for p = n_proc - 1 downto 0 do
    if cursor.(p) < stop.(p) then begin
      let r = find p in
      let ps, ds = try Hashtbl.find groups r with Not_found -> ([], []) in
      Hashtbl.replace groups r (p :: ps, ds)
    end
  done;
  for d = disks - 1 downto 0 do
    let r = find (n_proc + d) in
    match Hashtbl.find_opt groups r with
    | Some (ps, ds) -> Hashtbl.replace groups r (ps, d :: ds)
    | None -> ()
  done;
  Hashtbl.fold (fun root g acc -> (root, g) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (_, (ps, ds)) -> { g_procs = ps; g_disks = Array.of_list ds })

(* Closed-loop simulation: each processor replays its request stream in
   order, issuing a request [think_ms] after its previous completion.
   Segment barriers synchronize all processors.  Disks are FIFO in issue
   order; their power trajectory over each inter-arrival gap is decided
   by the policy. *)
let run ~fold ~model ~obs ~hints ~knobs ~shards ~disks policy (t : Trace.t) =
  Dp_obs.Prof.span "disksim.simulate" @@ fun () ->
  if disks < 1 then invalid_arg "Engine.simulate: disks must be >= 1";
  if shards < 1 then invalid_arg "Engine.simulate: shards must be >= 1";
  (match Knobs.check knobs with Ok _ -> () | Error msg -> invalid_arg ("Engine.simulate: " ^ msg));
  let model = Knobs.model knobs model in
  let n = Trace.length t in
  (* The trace's recorded counts validate and size the run; only a
     failing check looks at the requests, to name the first culprit. *)
  let first_where bad =
    let rec go i = if bad i then i else go (i + 1) in
    go 0
  in
  if t.disks > disks then
    invalid_arg
      (Printf.sprintf "Engine.simulate: request on disk %d of %d"
         t.disk.(first_where (fun i -> t.disk.(i) >= disks))
         disks);
  if not t.finite then begin
    let i =
      first_where (fun i ->
          not
            (Float.is_finite (Float.Array.get t.arrival i)
            && Float.is_finite (Float.Array.get t.think i)))
    in
    invalid_arg
      (Printf.sprintf "Engine.simulate: non-finite time (arrival_ms %g, think_ms %g)"
         (Float.Array.get t.arrival i) (Float.Array.get t.think i))
  end;
  let n_proc = t.procs and n_seg = Int.max 1 t.segments in
  (* The validation pass also checks the hint order, so a list already
     in [Hint.compare_at] order is not sorted again. *)
  let in_order = ref true in
  ignore
    (List.fold_left
       (fun prev (h : Hint.t) ->
         if h.Hint.disk < 0 || h.Hint.disk >= disks then
           invalid_arg
             (Printf.sprintf "Engine.simulate: hint on disk %d of %d" h.Hint.disk disks);
         let lead_ms = match h.Hint.action with Hint.Pre_spin_up l -> l | _ -> 0.0 in
         if not (Float.is_finite h.Hint.at_ms && Float.is_finite lead_ms) then
           invalid_arg
             (Printf.sprintf "Engine.simulate: non-finite hint time (at_ms %g, lead_ms %g)"
                h.Hint.at_ms lead_ms);
         (match prev with
         | Some p when Hint.compare_at p h > 0 -> in_order := false
         | _ -> ());
         Some h)
       None hints);
  let hints = if !in_order then hints else List.stable_sort Hint.compare_at hints in
  (* Hints direct only a proactive policy; the others never take them. *)
  let directed =
    hints <> []
    &&
    match policy with
    | Policy.Tpm c -> c.Policy.proactive
    | Policy.Drpm c -> c.Policy.proactive
    | Policy.No_pm | Policy.Adaptive _ -> false
  in
  let fctx =
    Option.map
      (fun cfg -> { inj = Injector.make cfg ~disks; retry = knobs.Knobs.retry })
      knobs.Knobs.faults
  in
  let rctx =
    Option.map
      (fun cfg ->
        { rc = Repair.make cfg ~disks; deadline_ms = knobs.Knobs.deadline_ms; peers = [||] })
      (Knobs.armed_repair knobs)
  in
  let ctrl =
    match policy with
    | Policy.Adaptive cfg ->
        Some
          (Online.make cfg
             ~hardware:
               {
                 Online.breakeven_ms = ms_of_s model.Disk_model.tpm_breakeven_s;
                 spin_down_ms = ms_of_s model.Disk_model.spin_down_s;
                 spin_up_ms = ms_of_s model.Disk_model.spin_up_s;
                 rpm_max = model.Disk_model.rpm_max;
                 rpm_min = model.Disk_model.rpm_min;
                 rpm_step = model.Disk_model.rpm_step;
                 level_ms = ms_of_s (Disk_model.drpm_level_transition_s model);
               }
             ~disks)
    | _ -> None
  in
  (* The per (segment, processor) queues, each in arrival order: a
     stable counting sort of the trace's rows on (segment, processor)
     puts queue [k = seg * n_proc + p] at positions [first.(k)] up to
     [first.(k + 1) - 1] of [order], so a processor's queue is
     contiguous however the processors interleave in the trace.  The
     issue loop reads the trace's own columns at [order.(i)]. *)
  let n_queues = n_seg * n_proc in
  let first = Array.make (n_queues + 1) 0 in
  for i = 0 to n - 1 do
    let k = (t.seg.(i) * n_proc) + t.proc.(i) + 1 in
    first.(k) <- first.(k) + 1
  done;
  for k = 1 to n_queues do
    first.(k) <- first.(k) + first.(k - 1)
  done;
  let order = Array.make n 0 in
  let next = Array.sub first 0 n_queues in
  for i = 0 to n - 1 do
    let k = (t.seg.(i) * n_proc) + t.proc.(i) in
    let j = next.(k) in
    next.(k) <- j + 1;
    order.(j) <- i
  done;
  (* A folding run is fault-free No-PM: one busy span per request, each
     opening at most one gap, and a terminal gap, so a disk folds at
     most its requests plus one. *)
  let gap_room = Array.make disks (if fold then 1 else 0) in
  if fold then Array.iter (fun d -> gap_room.(d) <- gap_room.(d) + 1) t.disk;
  let px = prices model in
  let states =
    Array.init disks (fun d -> make_state ~sink:obs ~gap_room:gap_room.(d) px d)
  in
  (match rctx with Some rx -> rx.peers <- states | None -> ());
  List.iter
    (fun (h : Hint.t) ->
      let st = states.(h.Hint.disk) in
      st.hints <- h :: st.hints)
    (List.rev hints);
  let last_completion = Array.make disks 0.0 in
  let clocks = Array.make (max n_proc 1) 0.0 in
  (* This segment's queue of processor [p]: [queue.(cursor.(p))] up to
     [queue.(stop.(p) - 1)]. *)
  let cursor = Array.make n_proc 0 and stop = Array.make n_proc 0 in
  let sink_on = Sink.enabled obs in
  (* One group's issue loop over a segment.  The group touches only its
     own slots of [cursor]/[clocks]/[last_completion] and its own disk
     states, so concurrent groups never share a mutable cell.  The
     group's processors wait in a heap keyed by the instant each issues
     its next request, ties toward the lower processor.  A processor's
     key changes only when it issues, so each step serves the top and
     then puts it back under its next instant, or pops it once its
     queue is done: one sift per request.  With [batch] set, the events
     of each issue step are buffered and tagged with that same key: a
     stable sort of all groups' batches on it replays the serial
     emission order bit for bit. *)
  let run_group ~batch { g_procs; g_disks } =
    let batches = ref [] in
    let cur = ref [] in
    if batch then begin
      let buffer = Sink.stream (fun e -> cur := e :: !cur) in
      Array.iter (fun d -> set_sink states.(d) buffer) g_disks
    end;
    let ready = Minheap.create ~capacity:(List.length g_procs) () in
    List.iter
      (fun p ->
        if cursor.(p) < stop.(p) then
          Minheap.add ready
            ~key:(clocks.(p) +. Float.Array.get t.think order.(cursor.(p)))
            p)
      g_procs;
    let rec step () =
      if not (Minheap.is_empty ready) then begin
        let p = Minheap.top ready in
        let i = order.(cursor.(p)) in
        (* The key [p] waits under, recomputed from the same operands:
           [Minheap.top_key] would return it boxed. *)
        let issue = clocks.(p) +. Float.Array.get t.think i in
        cursor.(p) <- cursor.(p) + 1;
        (* Degraded mode: rebuild streams advance on failed slots up
           to the issue instant, and the request is routed to the
           mirror while its home slot is down.  Only this group's
           slots: a foreign failed slot is advanced by its own
           group's clock, and the rebuild stream's whole-slice
           greedy advance reaches the same state through any
           refinement of intermediate instants.  A loop, not a closure
           over [issue]: the scan allocates nothing for a healthy
           slot. *)
        (match rctx with
        | Some rx ->
            for k = 0 to Array.length g_disks - 1 do
              let d = g_disks.(k) in
              if Repair.is_failed rx.rc d then advance_rebuild rx states.(d) ~until:issue
            done
        | None -> ());
        let home = t.disk.(i) in
        let target =
          match rctx with
          | Some rx when Repair.is_failed rx.rc home -> (
              match Repair.mirror_of rx.rc home with
              | Some m when not (Repair.is_failed rx.rc m) -> m
              | _ -> home)
          | _ -> home
        in
        let st = states.(target) in
        (* Scrub runs first, out of the same idle window the policy
           is about to manage; the policy then sees the shrunken
           remainder. *)
        (match rctx with
        | Some rx when issue > st.f.now -> scrub_gap model rx st ~until:issue
        | _ -> ());
        let response =
          handle_request model policy ctrl fctx rctx st t i ~proc:p ~issue ~directed
            ~recon:(target <> home)
        in
        clocks.(p) <- issue +. response;
        if cursor.(p) < stop.(p) then
          Minheap.replace_top ready
            ~key:(clocks.(p) +. Float.Array.get t.think order.(cursor.(p)))
            p
        else Minheap.pop ready;
        last_completion.(target) <- st.f.now;
        (match rctx with
        | Some rx when Repair.should_fail rx.rc ~disk:target ->
            fail_disk model rx states.(target)
        | _ -> ());
        if batch then begin
          batches := (issue, p, List.rev !cur) :: !batches;
          cur := []
        end;
        step ()
      end
    in
    step ();
    if batch then Array.iter (fun d -> set_sink states.(d) obs) g_disks;
    List.rev !batches
  in
  let all_group =
    { g_procs = List.init n_proc Fun.id; g_disks = Array.init disks Fun.id }
  in
  let mirror_edges =
    match rctx with Some rx -> Some (fun d -> Repair.mirror_of rx.rc d) | None -> None
  in
  for seg = 0 to n_seg - 1 do
    Array.blit first (seg * n_proc) cursor 0 n_proc;
    Array.blit first ((seg * n_proc) + 1) stop 0 n_proc;
    let groups =
      (* Repair-armed runs with a live sink stay one group: a failed
         slot's rebuild slices are emitted from whichever step's clock
         first covers them, an attribution the batch key cannot carry
         across groups.  Without a sink the rebuild invariance above
         makes the split safe, and without repair there is nothing to
         attribute. *)
      if shards <= 1 || (sink_on && Option.is_some rctx) then [ all_group ]
      else
        shard_groups ~n_proc ~disks ~mirror:mirror_edges ~order ~disk:t.disk ~cursor ~stop
    in
    (match groups with
    | [] -> ()
    | [ g ] -> ignore (run_group ~batch:false g)
    | gs ->
        let per_group =
          Domain_pool.map ~jobs:shards (run_group ~batch:sink_on) gs
        in
        if sink_on then
          List.concat per_group
          |> List.stable_sort (fun (t1, p1, _) (t2, p2, _) ->
                 match Float.compare t1 t2 with 0 -> Int.compare p1 p2 | c -> c)
          |> List.iter (fun (_, _, es) -> List.iter (Sink.emit obs) es));
    (* Fork-join barrier: the epoch boundary every shard joins. *)
    let latest = Array.fold_left max 0.0 clocks in
    Array.fill clocks 0 (Array.length clocks) latest
  done;
  let makespan = Array.fold_left max 0.0 last_completion in
  Array.iter
    (fun st ->
      (match rctx with
      | Some rx ->
          if Repair.is_failed rx.rc st.id then begin
            (* A slot still failed at the end of the run rebuilds as far
               as the makespan allows, then idles out the remainder at
               full power (no PM on a rebuilding spare). *)
            advance_rebuild rx st ~until:makespan;
            if Repair.is_failed rx.rc st.id then spend_idle st (makespan -. st.f.now)
          end
          else if makespan > st.f.now then scrub_gap model rx st ~until:makespan
      | None -> ());
      handle_trailing model policy ctrl fctx st ~until:makespan ~directed)
    states;
  let per_disk =
    Array.mapi
      (fun d st -> stats_of_state st ~last_completion:last_completion.(d))
      states
  in
  ( {
    policy = Policy.name policy;
    per_disk;
    energy_j = Array.fold_left (fun acc (s : disk_stats) -> acc +. s.energy_j) 0.0 per_disk;
    io_time_ms =
      Array.fold_left (fun acc (s : disk_stats) -> acc +. s.response_ms_total) 0.0 per_disk;
    makespan_ms = makespan;
  }, states )

let replay ?(model = Disk_model.ultrastar_36z15) ?(obs = Sink.null) ?(hints = [])
    ?(knobs = Knobs.none) ?(shards = 1) ~disks policy t =
  fst (run ~fold:false ~model ~obs ~hints ~knobs ~shards ~disks policy t)

type idle_gaps = { len_ms : Float.Array.t; count : int; terminal : bool }

let replay_gaps ?(model = Disk_model.ultrastar_36z15) ?(obs = Sink.null) ~disks t =
  let result, states =
    run ~fold:true ~model ~obs ~hints:[] ~knobs:Knobs.none ~shards:1 ~disks Policy.No_pm t
  in
  let makespan_ms = result.makespan_ms in
  ( result,
    Array.map
      (fun st ->
        let c = st.f.cursor in
        let terminal = makespan_ms > c +. gap_eps in
        if terminal then add_gap st (makespan_ms -. c);
        { len_ms = st.gap_len; count = st.gaps; terminal })
      states )

let simulate ?model ?obs ?hints ?knobs ?shards ~disks policy reqs =
  replay ?model ?obs ?hints ?knobs ?shards ~disks policy
    (Trace.of_list ~caller:"Engine.simulate" reqs)

let pp_disk_stats ppf s =
  Format.fprintf ppf
    "disk %d: %d reqs, %.1f J, busy %.0f ms, idle %.0f ms, standby %.0f ms, trans %.0f ms, \
     %d downs, %d ups, %d shifts, resp avg %.2f ms max %.2f ms"
    s.disk s.requests s.energy_j s.busy_ms s.idle_ms s.standby_ms s.transition_ms
    s.spin_downs s.spin_ups s.speed_changes
    (if s.requests = 0 then 0.0 else s.response_ms_total /. float_of_int s.requests)
    s.response_ms_max;
  if s.spin_up_retries > 0 || s.media_retries > 0 || s.latency_spikes > 0 || s.degraded_ms > 0.0
  then
    Format.fprintf ppf ", %d su-retries, %d media-retries, %d spikes, degraded %.0f ms"
      s.spin_up_retries s.media_retries s.latency_spikes s.degraded_ms;
  (* Repair-domain suffix only when the run actually exercised it, so
     clean output stays byte-identical. *)
  if
    s.remaps > 0 || s.remap_penalty_hits > 0 || s.scrub_chunks > 0 || s.reconstructions > 0
    || s.failovers > 0 || s.disk_failures > 0
  then
    Format.fprintf ppf
      ", %d remaps, %d remap hits, scrub %d/%d, %d recon, %d failovers, %d failures (%d \
       rebuilt)"
      s.remaps s.remap_penalty_hits s.scrub_found s.scrub_chunks s.reconstructions
      s.failovers s.disk_failures s.rebuilds_completed

(* The per-disk counters summed over the array, and the worst disk's
   wear: the one fold behind every reliability printer. *)
type totals = {
  spin_downs : int;
  wear : float;
  spin_up_retries : int;
  media_retries : int;
  latency_spikes : int;
  degraded_ms : float;
  remaps : int;
  remap_penalty_hits : int;
  scrub_chunks : int;
  scrub_found : int;
  reconstructions : int;
  rebuild_chunks : int;
  failovers : int;
  disk_failures : int;
  rebuilds_completed : int;
}

let totals ?(model = Disk_model.ultrastar_36z15) r =
  Array.fold_left
    (fun t (d : disk_stats) ->
      {
        spin_downs = t.spin_downs + d.spin_downs;
        wear = Float.max t.wear (wear_fraction model d);
        spin_up_retries = t.spin_up_retries + d.spin_up_retries;
        media_retries = t.media_retries + d.media_retries;
        latency_spikes = t.latency_spikes + d.latency_spikes;
        degraded_ms = t.degraded_ms +. d.degraded_ms;
        remaps = t.remaps + d.remaps;
        remap_penalty_hits = t.remap_penalty_hits + d.remap_penalty_hits;
        scrub_chunks = t.scrub_chunks + d.scrub_chunks;
        scrub_found = t.scrub_found + d.scrub_found;
        reconstructions = t.reconstructions + d.reconstructions;
        rebuild_chunks = t.rebuild_chunks + d.rebuild_chunks;
        failovers = t.failovers + d.failovers;
        disk_failures = t.disk_failures + d.disk_failures;
        rebuilds_completed = t.rebuilds_completed + d.rebuilds_completed;
      })
    {
      spin_downs = 0;
      wear = 0.0;
      spin_up_retries = 0;
      media_retries = 0;
      latency_spikes = 0;
      degraded_ms = 0.0;
      remaps = 0;
      remap_penalty_hits = 0;
      scrub_chunks = 0;
      scrub_found = 0;
      reconstructions = 0;
      rebuild_chunks = 0;
      failovers = 0;
      disk_failures = 0;
      rebuilds_completed = 0;
    }
    r.per_disk

(* The one-line wear/retry summary both CLIs print after a simulated
   run (formerly duplicated between dpcc and dpsim). *)
let pp_reliability ?model ppf r =
  let t = totals ?model r in
  Format.fprintf ppf
    "reliability: wear %.4f%% of start-stop budget (worst disk), %d spin-up retries, %d \
     media retries, %d latency spikes, degraded %.1f ms"
    (100.0 *. t.wear) t.spin_up_retries t.media_retries t.latency_spikes t.degraded_ms;
  if
    t.remaps > 0 || t.remap_penalty_hits > 0 || t.scrub_chunks > 0 || t.reconstructions > 0
    || t.failovers > 0 || t.disk_failures > 0
  then
    Format.fprintf ppf
      "@\nrepair: %d remaps, %d remap hits, scrub found %d in %d chunks, %d \
       reconstructions, %d failovers, %d disk failures (%d rebuilt)"
      t.remaps t.remap_penalty_hits t.scrub_found t.scrub_chunks t.reconstructions
      t.failovers t.disk_failures t.rebuilds_completed

let pp_result ppf r =
  Format.fprintf ppf "policy %s: energy %.1f J, disk I/O time %.1f s, makespan %.1f s@\n"
    r.policy r.energy_j (r.io_time_ms /. 1000.) (r.makespan_ms /. 1000.);
  pp_reliability ppf r

(* --- the conservation recorder ---

   One streaming check of the identities every run satisfies, fed the
   run's events as they happen and handed its result at the end.  Per
   disk it keeps the span energy, the charge per power state, the summed
   span lengths, where the last span stopped and the latest time of each
   event category; it stores no event. *)

type finding = { identity : string; detail : string }

let category = function
  | Obs_event.Power _ -> 0
  | Obs_event.Service _ -> 1
  | Obs_event.Hint_exec _ -> 2
  | Obs_event.Fault _ -> 3
  | Obs_event.Decision _ -> 4
  | Obs_event.Repair _ -> 5
  | Obs_event.Deadline _ -> 6

let categories = 7

let state_slot = function
  | Obs_event.Active -> 0
  | Obs_event.Idle _ -> 1
  | Obs_event.Standby -> 2
  | Obs_event.Transition -> 3

let recorder ~disks () =
  if disks < 1 then invalid_arg "Engine.recorder: disks must be >= 1";
  let energy = Float.Array.make disks 0.0 in
  let charged = Float.Array.make (4 * disks) 0.0 in
  let spanned = Float.Array.make disks 0.0 in
  (* Where each disk's last span stopped: NaN before its first, which no
     gap test flags. *)
  let frontier = Float.Array.make disks Float.nan in
  let latest = Float.Array.make (categories * disks) Float.neg_infinity in
  let findings = ref [] in
  let add identity fmt =
    Printf.ksprintf (fun detail -> findings := { identity; detail } :: !findings) fmt
  in
  let bump a i x = Float.Array.set a i (Float.Array.get a i +. x) in
  (* Events are emitted when they resolve but stamped at their start (a
     power span closes long after it began), so one disk's events are
     not monotone across categories: within one category they are. *)
  let observe ev =
    let d = Obs_event.disk ev and c = category ev in
    let at = Obs_event.time_ms ev and k = (d * categories) + c in
    let prev = Float.Array.get latest k in
    if at +. 1e-6 < prev then
      add "monotone-time" "disk %d: category-%d event at %.6f ms after one at %.6f ms" d c
        at prev;
    if at > prev then Float.Array.set latest k at;
    match ev with
    | Obs_event.Power { disk; state; start_ms; stop_ms; charge_ms; energy_j } ->
        bump energy disk energy_j;
        bump charged ((4 * disk) + state_slot state) charge_ms;
        (* A span with neither duration nor energy covers nothing. *)
        if stop_ms <> start_ms || energy_j <> 0.0 then begin
          if stop_ms -. start_ms < -1e-6 then
            add "conservation" "disk %d: span [%.6f, %.6f] runs backwards" disk start_ms
              stop_ms;
          let last = Float.Array.get frontier disk in
          if Float.abs (start_ms -. last) > 1e-6 then
            add "conservation" "disk %d: span gap at %.6f ms (previous stopped %.6f)" disk
              start_ms last;
          Float.Array.set frontier disk stop_ms;
          bump spanned disk (stop_ms -. start_ms)
        end
    | _ -> ()
  in
  let finish (r : result) =
    if Array.length r.per_disk <> disks then
      invalid_arg
        (Printf.sprintf "Engine.recorder: a result of %d disks, recorded %d"
           (Array.length r.per_disk) disks);
    let close ~eps a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b) in
    let folded =
      Array.fold_left (fun acc (s : disk_stats) -> acc +. s.energy_j) 0.0 r.per_disk
    in
    if not (close ~eps:1e-9 folded r.energy_j) then
      add "conservation" "per-disk energies sum to %.9f J, result says %.9f J" folded
        r.energy_j;
    Array.iter
      (fun (s : disk_stats) ->
        let d = s.disk in
        let spans_j = Float.Array.get energy d in
        if not (close ~eps:1e-9 spans_j s.energy_j) then
          add "energy-conservation"
            "disk %d: obs power spans sum to %.9f J, engine accounted %.9f J" d spans_j
            s.energy_j;
        List.iteri
          (fun slot (name, stat) ->
            let ms = Float.Array.get charged ((4 * d) + slot) in
            if not (close ~eps:1e-9 ms stat) then
              add "charge-accounting" "disk %d: obs %s spans sum to %.6f ms, stats say %.6f ms"
                d name ms stat)
          [
            ("busy", s.busy_ms);
            ("idle", s.idle_ms);
            ("standby", s.standby_ms);
            ("transition", s.transition_ms);
          ];
        let states = s.busy_ms +. s.idle_ms +. s.standby_ms +. s.transition_ms in
        let spans = Float.Array.get spanned d in
        if not (close ~eps:1e-6 spans states) then
          add "conservation" "disk %d: timeline spans %.6f ms, state times sum to %.6f ms" d
            spans states)
      r.per_disk;
    List.rev !findings
  in
  (Sink.stream observe, finish)
