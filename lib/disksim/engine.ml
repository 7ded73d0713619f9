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
}

(* Mutable per-disk simulation state. *)
type disk_state = {
  id : int;
  f : floats;
  mutable rpm : int;  (* current rotation speed (DRPM); rpm_max otherwise *)
  mutable reqs : int;
  mutable downs : int;
  mutable ups : int;
  mutable shifts : int;
  mutable su_retries : int;  (* failed spin-up attempts (fault-injected) *)
  mutable m_retries : int;  (* media-error request re-services *)
  mutable spikes : int;  (* servo recalibration stalls *)
  mutable win_count : int;  (* requests in the current DRPM window *)
  mutable last_end : int;  (* address right after the previous request; -1 initially *)
  mutable hints : Hint.t list;  (* pending compiler directives, by nominal time *)
  mutable sink : Sink.t;
      (* observability recorder; Sink.null by default.  Mutable because
         a sharded segment temporarily points the disks of a parallel
         group at a per-group buffering sink (see [simulate]). *)
}

let make_state ?(sink = Sink.null) model id =
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
      };
    rpm = model.Disk_model.rpm_max;
    reqs = 0;
    downs = 0;
    ups = 0;
    shifts = 0;
    su_retries = 0;
    m_retries = 0;
    spikes = 0;
    win_count = 0;
    last_end = -1;
    hints = [];
    sink;
  }

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

(* The one charge path: every millisecond and joule the simulation
   accounts goes through here.  From the same [ms] it adds to the
   state's statistic, the energy total and the disk's clock, and emits
   the [Power] span, so the spans are the disk's whole timeline (the
   conservation invariant the tests check).  A lump charge with no
   duration (a speed change overlapped with servicing) is a zero-length
   span.  [charge_ms] is [ms] exactly as the statistic adds it ([stop_ms
   -. start_ms] may round differently), so a sink can reproduce the
   per-state stats bit for bit. *)
let charge st state ~ms ~energy =
  (match state with
  | Obs_event.Active -> st.f.busy <- st.f.busy +. ms
  | Obs_event.Idle _ -> st.f.idle <- st.f.idle +. ms
  | Obs_event.Standby -> st.f.standby <- st.f.standby +. ms
  | Obs_event.Transition -> st.f.transition <- st.f.transition +. ms);
  st.f.energy <- st.f.energy +. energy;
  if Sink.enabled st.sink then
    Sink.emit st.sink
      (Obs_event.Power
         {
           disk = st.id;
           state;
           start_ms = st.f.now;
           stop_ms = st.f.now +. ms;
           charge_ms = ms;
           energy_j = energy;
         });
  st.f.now <- st.f.now +. ms

let decision st d =
  if Sink.enabled st.sink then
    Sink.emit st.sink (Obs_event.Decision { disk = st.id; at_ms = st.f.now; decision = d })

let fault_event st ~at ~kind ~cost =
  if Sink.enabled st.sink then
    Sink.emit st.sink (Obs_event.Fault { disk = st.id; at_ms = at; kind; cost_ms = cost })

let repair_event st ~at ~op ~blocks ~cost =
  if Sink.enabled st.sink then
    Sink.emit st.sink
      (Obs_event.Repair { disk = st.id; at_ms = at; op; blocks; cost_ms = cost })

(* Idle at the current speed for [ms], unconditionally: a zero-length
   backoff is still a span. *)
let charge_idle model st ms =
  charge st (Obs_event.Idle st.rpm) ~ms
    ~energy:(energy_j_of ~watts:(Disk_model.idle_power_w model ~rpm:st.rpm) ~ms)

let spend_idle model st ms = if ms > 0.0 then charge_idle model st ms

let spend_standby model st ms =
  if ms > 0.0 then
    charge st Obs_event.Standby ~ms
      ~energy:(energy_j_of ~watts:model.Disk_model.power_standby_w ~ms)

(* Active at [rpm] for [ms]: a service and its re-reads run at the
   serving speed; scrub reads, rebuild writes and mirror failover reads
   at the owning disk's current speed. *)
let charge_busy model st ~rpm ~degraded ms =
  if degraded then st.f.degraded <- st.f.degraded +. ms;
  charge st Obs_event.Active ~ms
    ~energy:(energy_j_of ~watts:(Disk_model.active_power_w model ~rpm) ~ms)

(* --- fault-aware primitive transitions --- *)

(* A spin-down always runs to completion, and an arrival that lands
   inside it waits, so the whole spin-down is charged however little of
   the gap was left. *)
let spin_down model st =
  st.downs <- st.downs + 1;
  charge st Obs_event.Transition ~ms:(ms_of_s model.Disk_model.spin_down_s)
    ~energy:model.Disk_model.spin_down_j

(* One full spin-up, in time and energy. *)
let charge_spin_up model st =
  charge st Obs_event.Transition ~ms:(ms_of_s model.Disk_model.spin_up_s)
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
        Disk_model.service_ms ~seek_distance:max_int model ~rpm:st.rpm
          ~bytes:(chunk * cfg.Repair.block_bytes)
      in
      let cost =
        read_ms
        +. float_of_int found
           *. Disk_model.remap_ms model ~rpm:st.rpm ~block_bytes:cfg.Repair.block_bytes
      in
      if !spent +. cost <= budget && st.f.now +. cost <= until then begin
        let _found, pass_done = Repair.scrub_commit rx.rc ~disk:st.id ~spare:model.Disk_model.spare_blocks in
        repair_event st ~at:st.f.now ~op:"scrub" ~blocks:chunk ~cost;
        charge_busy model st ~rpm:st.rpm ~degraded:false cost;
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
let rebuild_slice_ms model rx st =
  let cfg = Repair.cfg rx.rc in
  let bytes = cfg.Repair.rebuild_chunk_blocks * cfg.Repair.block_bytes in
  2.0 *. Disk_model.service_ms ~seek_distance:max_int model ~rpm:st.rpm ~bytes

(* Advance the rebuild stream on a failed slot up to [until]: whole
   slices only, so the slot's timeline never overruns the foreground
   clock that called us. *)
let advance_rebuild model rx st ~until =
  let cfg = Repair.cfg rx.rc in
  let continue_ = ref true in
  while !continue_ && Repair.is_failed rx.rc st.id do
    let slice = rebuild_slice_ms model rx st in
    if st.f.now +. slice <= until then begin
      repair_event st ~at:st.f.now ~op:"rebuild" ~blocks:cfg.Repair.rebuild_chunk_blocks
        ~cost:slice;
      charge_busy model st ~rpm:st.rpm ~degraded:true slice;
      if Repair.rebuild_step rx.rc ~disk:st.id ~blocks:cfg.Repair.rebuild_chunk_blocks
      then begin
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
let failover_read model rx origin ~bytes =
  match Repair.mirror_of rx.rc origin.id with
  | Some m when not (Repair.is_failed rx.rc m) ->
      let peer = rx.peers.(m) in
      let ms = Disk_model.service_ms ~seek_distance:max_int model ~rpm:peer.rpm ~bytes in
      repair_event origin ~at:origin.f.now ~op:"failover" ~blocks:0 ~cost:ms;
      charge_busy model peer ~rpm:peer.rpm ~degraded:true ms;
      Repair.note_failover rx.rc ~disk:origin.id;
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
        if executed && Sink.enabled st.sink then
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
    spend_idle model st gap;
    false
  end
  else begin
    spend_idle model st threshold;
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
    spend_idle model st gap
  end
  else begin
    decision st label;
    spin_down model st;
    if terminal then spend_standby model st (until -. st.f.now)
    else begin
      spend_standby model st (Float.max st.f.now (until -. lead) -. st.f.now);
      spin_up model fctx st;
      (* A generous lead brings the platters up early: idle at speed. *)
      if until > st.f.now then spend_idle model st (until -. st.f.now)
    end
  end

(* DRPM: step the speed down one level per [downshift_idle_ms] of
   continuous idleness (plus the transition itself), then idle at the
   reached speed.  An [overlapped] shift runs under a service, so only
   its energy is charged. *)
let drpm_shift ?(overlapped = false) model st ~rpm_to =
  let ms = if overlapped then 0.0 else ms_of_s (Disk_model.drpm_level_transition_s model) in
  charge st Obs_event.Transition ~ms
    ~energy:(Disk_model.drpm_transition_j model ~rpm_from:st.rpm ~rpm_to);
  st.rpm <- rpm_to;
  st.shifts <- st.shifts + 1

(* A speed change that a stuck-RPM fault may refuse; [true] when the
   shift happened. *)
let try_drpm_shift ?overlapped model fctx st ~rpm_to =
  if shift_refused fctx st then begin
    fault_event st ~at:st.f.now ~kind:"stuck-rpm" ~cost:0.0;
    false
  end
  else begin
    drpm_shift ?overlapped model st ~rpm_to;
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
      try_drpm_shift ~overlapped:true model fctx st ~rpm_to
      && rpm_to = model.Disk_model.rpm_max
    then st.ups <- st.ups + 1
  end

let drpm_floor model (cfg : Policy.drpm_config) =
  match cfg.Policy.min_rpm with
  | Some r -> max r model.Disk_model.rpm_min
  | None -> model.Disk_model.rpm_min

let gap_drpm model (cfg : Policy.drpm_config) fctx st ~until =
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
      && remaining >= wait +. ms_of_s (Disk_model.drpm_level_transition_s model)
    then begin
      if shift_refused fctx st then begin
        (* Stuck: pinned at the current level; idle out the gap. *)
        fault_event st ~at:st.f.now ~kind:"stuck-rpm" ~cost:0.0;
        continue := false
      end
      else begin
        spend_idle model st wait;
        decision st "drpm:idle-downshift";
        drpm_shift model st ~rpm_to:next_rpm;
        first := false
      end
    end
    else continue := false
  done;
  if until > st.f.now then spend_idle model st (until -. st.f.now)

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
    let step_ms = ms_of_s (Disk_model.drpm_level_transition_s model) in
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
    if levels = 0 then spend_idle model st gap
    else begin
      decision st
        (match target_rpm with Some _ -> "drpm:hint-dip" | None -> "drpm:planned-dip");
      let top = st.rpm in
      let low = st.rpm - (levels * model.Disk_model.rpm_step) in
      (* Ramp down... *)
      let rec down () =
        if st.rpm > low && try_drpm_shift model fctx st ~rpm_to:(st.rpm - model.Disk_model.rpm_step)
        then down ()
      in
      down ();
      if terminal then begin
        (* No next request: stay low to the end of the window. *)
        if until > st.f.now then spend_idle model st (until -. st.f.now)
      end
      else begin
        (* ...idle at the reached floor, then ramp up to finish at
           [until]. *)
        let ramp_up =
          float_of_int ((top - st.rpm) / model.Disk_model.rpm_step) *. step_ms
        in
        if until -. ramp_up > st.f.now then spend_idle model st (until -. ramp_up -. st.f.now);
        let rec up () =
          if st.rpm < top && try_drpm_shift model fctx st ~rpm_to:(st.rpm + model.Disk_model.rpm_step)
          then up ()
        in
        up ();
        (* A refused up-shift leaves the disk below speed and behind
           plan: idle out the remainder at the pinned level (the next
           request is then served degraded). *)
        if until -. st.f.now > 1e-9 then spend_idle model st (until -. st.f.now)
        else st.f.now <- Float.max st.f.now until
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
  if until -. st.f.now <= threshold then spend_idle model st (until -. st.f.now)
  else begin
    spend_idle model st threshold;
    decision st "online:dip";
    let step_ms = ms_of_s (Disk_model.drpm_level_transition_s model) in
    let floor_rpm = max target_rpm model.Disk_model.rpm_min in
    let rec down () =
      let next = st.rpm - model.Disk_model.rpm_step in
      if
        next >= floor_rpm
        && until -. st.f.now >= step_ms
        && try_drpm_shift model fctx st ~rpm_to:next
      then down ()
    in
    down ();
    if until > st.f.now then spend_idle model st (until -. st.f.now)
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
let idle_window model policy ctrl fctx st hs ~directed ~until ~terminal =
  if until <= st.f.now then false
  else
    match policy with
    | Policy.No_pm ->
        spend_idle model st (until -. st.f.now);
        false
    | Policy.Tpm cfg when cfg.Policy.proactive ->
        if directed then
          tpm_directed model fctx st ~until ~terminal ~go:(hint_spin_down hs)
            ~lead:(hint_lead hs) ~label:"tpm:hint-spin-down"
        else begin
          let su_ms = ms_of_s model.Disk_model.spin_up_s in
          let threshold =
            Float.max (ms_of_s cfg.Policy.idle_threshold_s)
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
            spend_idle model st (until -. st.f.now);
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
           | None -> spend_idle model st (until -. st.f.now));
        false
    | Policy.Drpm cfg ->
        gap_drpm model cfg fctx st ~until;
        false

(* --- servicing --- *)

let serve model fctx rctx st ~proc ~arrival ~lba ~bytes ~rpm ~recon =
  let seek_distance = if st.last_end < 0 then max_int else lba - st.last_end in
  let start = Float.max arrival st.f.now in
  (* The disk is idle between st.f.now and a later start only when it was
     left ready before the arrival; the gap rule already advanced
     st.f.now to the arrival, so any remainder here is spin-up overhang
     (st.f.now > arrival) or zero. *)
  if start > st.f.now then spend_idle model st (start -. st.f.now);
  (* Servo recalibration: an injected latency spike stalls the head
     (at active power) before the transfer begins. *)
  (match fctx with
  | None -> ()
  | Some { inj; _ } ->
      let spike = Injector.latency_spike_ms inj ~disk:st.id in
      if spike > 0.0 then begin
        st.spikes <- st.spikes + 1;
        fault_event st ~at:st.f.now ~kind:"latency-spike" ~cost:spike;
        charge_busy model st ~rpm ~degraded:true spike
      end);
  let service = Disk_model.service_ms ~seek_distance model ~rpm ~bytes in
  st.last_end <- lba + bytes;
  let stuck_slow = serving_degraded fctx st && rpm < model.Disk_model.rpm_max in
  charge_busy model st ~rpm ~degraded:stuck_slow service;
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
        let ms =
          float_of_int touch.Repair.remapped
          *. Disk_model.remap_ms model ~rpm ~block_bytes:cfg.Repair.block_bytes
        in
        repair_event st ~at:st.f.now ~op:"remap" ~blocks:touch.Repair.remapped ~cost:ms;
        charge_busy model st ~rpm ~degraded:true ms
      end;
      if touch.Repair.penalty_hits > 0 then
        charge_busy model st ~rpm ~degraded:true
          (float_of_int touch.Repair.penalty_hits *. model.Disk_model.remap_penalty_ms);
      if recon then begin
        (* Degraded read: routed here because the home disk failed; the
           mirrored copy costs an extra head detour. *)
        Repair.note_reconstruction rx.rc ~disk:st.id;
        repair_event st ~at:st.f.now ~op:"reconstruct"
          ~blocks:((bytes + cfg.Repair.block_bytes - 1) / cfg.Repair.block_bytes)
          ~cost:model.Disk_model.remap_penalty_ms;
        charge_busy model st ~rpm ~degraded:true model.Disk_model.remap_penalty_ms
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
        let reread = Disk_model.service_ms ~seek_distance:0 model ~rpm ~bytes in
        (try
        for attempt = 1 to retries do
          (match rctx with
          | Some ({ deadline_ms = Some d; _ } as rx) when st.f.now -. arrival > d -> (
              match failover_read model rx st ~bytes with
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
          charge_idle model st backoff;
          charge_busy model st ~rpm ~degraded:false reread
        done
        with Exit -> ())
      end);
  (* [extra] is 0.0 on every non-failover path, so [x +. 0.0] keeps the
     response and completion stamps bit-identical to the clean engine. *)
  let response = st.f.now -. arrival +. !extra in
  st.reqs <- st.reqs + 1;
  st.f.resp_total <- st.f.resp_total +. response;
  if response > st.f.resp_max then st.f.resp_max <- response;
  if Sink.enabled st.sink then
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
      if Sink.enabled st.sink then
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
let drpm_window model (cfg : Policy.drpm_config) fctx st ~response ~nominal =
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
      if try_drpm_shift model fctx st ~rpm_to:model.Disk_model.rpm_max then
        st.ups <- st.ups + 1
    end;
    st.win_count <- 0;
    st.f.win_resp <- 0.0;
    st.f.win_nominal <- 0.0
  end

(* The columns the issue loop reads, in queue order (see [replay]). *)
type queue = {
  q_arrival : Float.Array.t;
  q_think : Float.Array.t;
  q_lba : int array;
  q_size : int array;
  q_disk : int array;
}

(* Serve request [i] of the queue, processor [proc]'s, issued at [issue]
   (closed-loop actual time): take the directives addressed to its
   window, run the window under the gap rule, pay a reactive spin-up if
   the window left the disk spun down, serve, and keep the speed
   bookkeeping.  [directed] says the run's hint stream directs this
   proactive policy.  Returns the response time. *)
let handle_request model policy ctrl fctx rctx st q i ~proc ~issue ~directed ~recon =
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
    if directed then take_hints ~executed st ~upto:(Float.Array.get q.q_arrival i) else []
  in
  let policy = if fallback then Policy.reactive_fallback policy else policy in
  if idle_window model policy ctrl fctx st hs ~directed ~until:issue ~terminal:false then begin
    (* Reactive spin-up: starts at the arrival (or at the end of an
       in-flight spin-down), delays the service. *)
    st.f.now <- Float.max st.f.now issue;
    spin_up model fctx st
  end;
  (* Feed the online controller the arrival it just witnessed; the
     decision it derives (at an epoch boundary) governs future gaps. *)
  (match ctrl with Some c -> Online.observe c ~disk:st.id ~now_ms:issue | None -> ());
  let prev_end = st.last_end in
  let lba = q.q_lba.(i) and bytes = q.q_size.(i) in
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
          (Disk_model.service_ms ~seek_distance model ~rpm:model.Disk_model.rpm_max ~bytes)
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

let stats_of_state rctx st ~last_completion =
  let c =
    match rctx with
    | Some rx -> Repair.counters rx.rc st.id
    | None -> Repair.zero_counters
  in
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
    remaps = c.Repair.remaps;
    remap_penalty_hits = c.Repair.penalty_hits;
    scrub_chunks = c.Repair.scrub_chunks;
    scrub_found = c.Repair.scrub_found;
    reconstructions = c.Repair.reconstructions;
    rebuild_chunks = c.Repair.rebuild_chunks;
    failovers = c.Repair.failovers;
    disk_failures = c.Repair.failures;
    rebuilds_completed = c.Repair.rebuilds;
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
type shard_group = { g_procs : int list; g_disks : int list }

let shard_groups ~n_proc ~disks ~mirror ~q_disk ~cursor ~stop =
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
      union p (n_proc + q_disk.(i))
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
  |> List.map (fun (_, (ps, ds)) -> { g_procs = ps; g_disks = ds })

(* Closed-loop simulation: each processor replays its request stream in
   order, issuing a request [think_ms] after its previous completion.
   Segment barriers synchronize all processors.  Disks are FIFO in issue
   order; their power trajectory over each inter-arrival gap is decided
   by the policy. *)
let replay ?(model = Disk_model.ultrastar_36z15) ?(obs = Sink.null) ?(hints = [])
    ?(knobs = Knobs.none) ?(shards = 1) ~disks policy (t : Trace.t) =
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
     stable counting sort of the trace on (segment, processor) puts
     queue [k = seg * n_proc + p] at positions [first.(k)] up to
     [first.(k + 1) - 1].  The issue loop reads five columns, which are
     copied into that order once, so a processor's queue is contiguous
     however the processors interleave in the trace. *)
  let n_queues = n_seg * n_proc in
  let first = Array.make (n_queues + 1) 0 in
  for i = 0 to n - 1 do
    let k = (t.seg.(i) * n_proc) + t.proc.(i) + 1 in
    first.(k) <- first.(k) + 1
  done;
  for k = 1 to n_queues do
    first.(k) <- first.(k) + first.(k - 1)
  done;
  let q =
    {
      q_arrival = Float.Array.create n;
      q_think = Float.Array.create n;
      q_lba = Array.make n 0;
      q_size = Array.make n 0;
      q_disk = Array.make n 0;
    }
  in
  let next = Array.sub first 0 n_queues in
  for i = 0 to n - 1 do
    let k = (t.seg.(i) * n_proc) + t.proc.(i) in
    let j = next.(k) in
    next.(k) <- j + 1;
    Float.Array.set q.q_arrival j (Float.Array.get t.arrival i);
    Float.Array.set q.q_think j (Float.Array.get t.think i);
    q.q_lba.(j) <- t.lba.(i);
    q.q_size.(j) <- t.size.(i);
    q.q_disk.(j) <- t.disk.(i)
  done;
  let states = Array.init disks (make_state ~sink:obs model) in
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
      List.iter (fun d -> states.(d).sink <- buffer) g_disks
    end;
    let ready = Minheap.create ~capacity:(List.length g_procs) () in
    List.iter
      (fun p ->
        if cursor.(p) < stop.(p) then
          Minheap.add ready ~key:(clocks.(p) +. Float.Array.get q.q_think cursor.(p)) p)
      g_procs;
    let rec step () =
      if not (Minheap.is_empty ready) then begin
        let p = Minheap.top ready in
        let issue = Minheap.top_key ready in
        let i = cursor.(p) in
        cursor.(p) <- i + 1;
        (* Degraded mode: rebuild streams advance on failed slots up
           to the issue instant, and the request is routed to the
           mirror while its home slot is down.  Only this group's
           slots: a foreign failed slot is advanced by its own
           group's clock, and the rebuild stream's whole-slice
           greedy advance reaches the same state through any
           refinement of intermediate instants. *)
        (match rctx with
        | Some rx ->
            List.iter
              (fun d ->
                let st = states.(d) in
                if Repair.is_failed rx.rc st.id then
                  advance_rebuild model rx st ~until:issue)
              g_disks
        | None -> ());
        let home = q.q_disk.(i) in
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
          handle_request model policy ctrl fctx rctx st q i ~proc:p ~issue ~directed
            ~recon:(target <> home)
        in
        clocks.(p) <- issue +. response;
        if cursor.(p) < stop.(p) then
          Minheap.replace_top ready
            ~key:(clocks.(p) +. Float.Array.get q.q_think cursor.(p))
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
    if batch then List.iter (fun d -> states.(d).sink <- obs) g_disks;
    List.rev !batches
  in
  let all_group =
    { g_procs = List.init n_proc Fun.id; g_disks = List.init disks Fun.id }
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
      else shard_groups ~n_proc ~disks ~mirror:mirror_edges ~q_disk:q.q_disk ~cursor ~stop
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
            advance_rebuild model rx st ~until:makespan;
            if Repair.is_failed rx.rc st.id then spend_idle model st (makespan -. st.f.now)
          end
          else if makespan > st.f.now then scrub_gap model rx st ~until:makespan
      | None -> ());
      handle_trailing model policy ctrl fctx st ~until:makespan ~directed)
    states;
  let per_disk =
    Array.mapi
      (fun d st -> stats_of_state rctx st ~last_completion:last_completion.(d))
      states
  in
  {
    policy = Policy.name policy;
    per_disk;
    energy_j = Array.fold_left (fun acc (s : disk_stats) -> acc +. s.energy_j) 0.0 per_disk;
    io_time_ms =
      Array.fold_left (fun acc (s : disk_stats) -> acc +. s.response_ms_total) 0.0 per_disk;
    makespan_ms = makespan;
  }

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

(* --- conservation accessors ---

   The identities every run must satisfy, factored out of the tests so
   external checkers (the chaos oracle) probe the same definitions the
   engine promises instead of re-deriving their own. *)

let accounted_ms s = s.busy_ms +. s.idle_ms +. s.standby_ms +. s.transition_ms

let check_conservation ?(eps = 1e-6) ?timeline r =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let close a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b) in
  (* The per-disk energies fold to the array total. *)
  let folded = Array.fold_left (fun acc (s : disk_stats) -> acc +. s.energy_j) 0.0 r.per_disk in
  if not (close folded r.energy_j) then
    err "per-disk energies sum to %.9f J, result says %.9f J" folded r.energy_j;
  (match timeline with
  | None -> ()
  | Some (t : Timeline.t) ->
      Array.iter
        (fun (s : disk_stats) ->
          let d = s.disk in
          (* Every accounted joule lands in exactly one segment. *)
          let seg_j = Timeline.total_energy_j t ~disk:d in
          if not (close seg_j s.energy_j) then
            err "disk %d: timeline energy %.9f J, stats say %.9f J" d seg_j s.energy_j;
          (* Segment spans cover the accounted state time exactly. *)
          let span =
            List.fold_left (fun acc (g : Timeline.segment) -> acc +. (g.stop_ms -. g.start_ms))
              0.0 t.(d)
          in
          if not (close span (accounted_ms s)) then
            err "disk %d: timeline spans %.6f ms, state times sum to %.6f ms" d span
              (accounted_ms s);
          (* Chronological, gap-free, non-negative segments. *)
          ignore
            (List.fold_left
               (fun prev (g : Timeline.segment) ->
                 if g.stop_ms -. g.start_ms < -.eps then
                   err "disk %d: segment [%.6f, %.6f] runs backwards" d g.start_ms g.stop_ms;
                 (match prev with
                 | Some stop when Float.abs (g.start_ms -. stop) > eps ->
                     err "disk %d: segment gap at %.6f ms (previous stopped %.6f)" d
                       g.start_ms stop
                 | _ -> ());
                 Some g.stop_ms)
               None t.(d)))
        r.per_disk);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))
