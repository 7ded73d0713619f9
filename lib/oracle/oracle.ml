module Disk_model = Dp_disksim.Disk_model
module Engine = Dp_disksim.Engine
module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
module Hint = Dp_trace.Hint
module Minheap = Dp_util.Minheap

type space = Tpm_space | Drpm_space | Full_space

let space_name = function
  | Tpm_space -> "Oracle-TPM"
  | Drpm_space -> "Oracle-DRPM"
  | Full_space -> "Oracle"

let space_of_name = function
  | "oracle-tpm" -> Some Tpm_space
  | "oracle-drpm" -> Some Drpm_space
  | "oracle" -> Some Full_space
  | _ -> None

type gap = { start_ms : float; len_ms : float; terminal : bool }

type action = Stay_idle | Spin_cycle | Rpm_dip of int

type step = { gap : gap; action : action; energy_j : float }

type plan = { steps : step list; energy_j : float }

let ms_of_s s = s *. 1000.0
let j_of ~watts ~ms = watts *. ms /. 1000.0

(* Per-level ramp cost between full speed and [rpm], charged exactly as
   the engine's [drpm_shift] does: one level-transition time per step, at
   the active power of the faster of the two speeds.  The set of "faster"
   speeds is the same going down and coming back up, so one ramp cost
   serves both directions. *)
let ramp_cost model ~rpm =
  let step_ms = ms_of_s (Disk_model.drpm_level_transition_s model) in
  let rec go r (time_ms, energy_j) =
    if r <= rpm then (time_ms, energy_j)
    else
      go
        (r - model.Disk_model.rpm_step)
        ( time_ms +. step_ms,
          energy_j
          +. Disk_model.drpm_transition_j model ~rpm_from:r
               ~rpm_to:(r - model.Disk_model.rpm_step) )
  in
  go model.Disk_model.rpm_max (0.0, 0.0)

(* The per-model constants of the gap DP, computed once per planning
   call ([schedule], [bound], [hints]) instead of once per gap:
   the full-speed idle power, the lowest idle power of the ladder, and
   for every level below full speed its ramp cost and idle power. *)
type dip = { rpm : int; ramp_ms : float; ramp_j : float; idle_w : float }

type costs = {
  model : Disk_model.t;
  idle_full_w : float;
  min_idle_w : float;
  dips : dip list;
}

let costs model =
  let levels = Disk_model.rpm_levels model in
  {
    model;
    idle_full_w = Disk_model.idle_power_w model ~rpm:model.Disk_model.rpm_max;
    min_idle_w =
      List.fold_left
        (fun acc rpm -> Float.min acc (Disk_model.idle_power_w model ~rpm))
        infinity levels;
    dips =
      List.filter_map
        (fun rpm ->
          if rpm >= model.Disk_model.rpm_max then None
          else
            let ramp_ms, ramp_j = ramp_cost model ~rpm in
            Some { rpm; ramp_ms; ramp_j; idle_w = Disk_model.idle_power_w model ~rpm })
        levels;
  }

(* The cheapest candidate trajectory for one gap.  The disk enters at
   full speed and, unless the gap is terminal, must be back at full
   speed when the gap ends; a candidate is admissible when its
   transitions fit inside the gap.  This is the (tiny) per-gap dynamic
   program: the state space is {standby} ∪ RPM levels, and with both
   endpoints pinned the optimal trajectory is a single excursion, so
   enumerating the excursion depths solves the DP exactly.  Candidates
   are offered in a fixed order (idle, spin cycle, dips by rising RPM)
   and a later one wins only when strictly cheaper. *)
let best_in c space ~len_ms ~terminal =
  let m = c.model in
  let pick ((_, be) as best) a e = if e < be then (a, e) else best in
  let idle_j = j_of ~watts:c.idle_full_w ~ms:len_ms in
  let best = pick (Stay_idle, infinity) Stay_idle idle_j in
  let best =
    match space with
    | Drpm_space -> best
    | Tpm_space | Full_space ->
        let sd_ms = ms_of_s m.Disk_model.spin_down_s in
        let su_ms = ms_of_s m.Disk_model.spin_up_s in
        if terminal then
          if len_ms >= sd_ms then
            pick best Spin_cycle
              (m.Disk_model.spin_down_j
              +. j_of ~watts:m.Disk_model.power_standby_w ~ms:(len_ms -. sd_ms))
          else best
        else if len_ms >= sd_ms +. su_ms then
          pick best Spin_cycle
            (m.Disk_model.spin_down_j +. m.Disk_model.spin_up_j
            +. j_of ~watts:m.Disk_model.power_standby_w ~ms:(len_ms -. sd_ms -. su_ms))
        else best
  in
  match space with
  | Tpm_space -> best
  | Drpm_space | Full_space ->
      List.fold_left
        (fun best d ->
          let round_trip = if terminal then d.ramp_ms else 2.0 *. d.ramp_ms in
          if len_ms < round_trip then best
          else
            pick best (Rpm_dip d.rpm)
              ((if terminal then d.ramp_j else 2.0 *. d.ramp_j)
              +. j_of ~watts:d.idle_w ~ms:(len_ms -. round_trip)))
        best c.dips

let best_gap ?(model = Disk_model.ultrastar_36z15) space (g : gap) =
  best_in (costs model) space ~len_ms:g.len_ms ~terminal:g.terminal

let schedule ?(model = Disk_model.ultrastar_36z15) space gaps =
  let c = costs model in
  let steps =
    List.map
      (fun g ->
        let action, energy_j = best_in c space ~len_ms:g.len_ms ~terminal:g.terminal in
        { gap = g; action; energy_j })
      gaps
  in
  { steps; energy_j = List.fold_left (fun acc (s : step) -> acc +. s.energy_j) 0.0 steps }

(* --- the servicing floor --- *)

(* Cheapest admissible service energy per request, walking each disk's
   stream in arrival order with the engine's seek-distance rule.  In
   [Tpm_space] disks serve at full speed (TPM has no other); with DRPM
   transitions available the oracle may serve at whichever level costs
   the least energy — reduced speed stretches the service but can still
   win, which is exactly the serve-at-reduced-RPM leg of the DP.  A
   request's price depends only on its seek class and size, so it is
   looked up in a table filled on first use: each request adds the same
   float, in the same order, as pricing it afresh would. *)
let busy_floor_j space model ~disks (t : Trace.t) =
  let levels =
    match space with
    | Tpm_space -> [ model.Disk_model.rpm_max ]
    | Drpm_space | Full_space -> Disk_model.rpm_levels model
  in
  let active = List.map (fun rpm -> (rpm, Disk_model.active_power_w model ~rpm)) levels in
  (* A distance of each seek class: sequential, a short hop, far. *)
  let class_distance = [| 0; 1; max_int |] in
  let prices = Array.init 3 (fun _ -> Hashtbl.create 4) in
  let price cls size =
    match Hashtbl.find prices.(cls) size with
    | j -> j
    | exception Not_found ->
        let seek_distance = class_distance.(cls) in
        let j =
          List.fold_left
            (fun best (rpm, watts) ->
              let ms = Disk_model.service_ms ~seek_distance model ~rpm ~bytes:size in
              Float.min best (j_of ~watts ~ms))
            infinity active
        in
        Hashtbl.add prices.(cls) size j;
        j
  in
  let last_end = Array.make disks (-1) in
  let sum = Float.Array.make 1 0.0 in
  for i = 0 to Trace.length t - 1 do
    let d = t.disk.(i) in
    let cls =
      if last_end.(d) < 0 then Disk_model.seek_class max_int
      else Disk_model.seek_class (t.lba.(i) - last_end.(d))
    in
    last_end.(d) <- t.lba.(i) + t.size.(i);
    Float.Array.set sum 0 (Float.Array.get sum 0 +. price cls t.size.(i))
  done;
  Float.Array.get sum 0

type bound = {
  space : space;
  energy_j : float;
  busy_j : float;
  gap_j : float;
  base : Engine.result;
}

(* Per-gap energy floor for the lower bound.  Unlike the executable
   planner in [best_gap] — which pins the gap's endpoints at full speed
   and charges real ramp costs, because that is what the engine can
   actually run — the floor must also cover closed-loop drift: a policy
   that serves slowly stretches the timeline, and a multi-speed disk
   crosses gap boundaries at reduced speed without ever paying a ramp.

   - [Tpm_space] trajectories really are boundary-pinned (a two-mode
     disk serves only at full speed), and the per-gap optimum is
     monotone in the gap length, so the executable DP is the floor.
   - In [Drpm_space] any spinning trajectory draws at least the idle
     power of the lowest level at every instant, so the floor is that
     power times the gap — ramp-free, hence immune to boundary effects.
   - [Full_space] takes the min: every engine policy belongs to one of
     the two families. *)
let gap_floor_j space c ~len_ms ~terminal =
  let idle_floor = j_of ~watts:c.min_idle_w ~ms:len_ms in
  let tpm_floor () = snd (best_in c Tpm_space ~len_ms ~terminal) in
  match space with
  | Tpm_space -> tpm_floor ()
  | Drpm_space -> idle_floor
  | Full_space -> Float.min (tpm_floor ()) idle_floor

type reference = {
  model : Disk_model.t;
  disks : int;
  requests : Trace.t;
  base : Engine.result;
  gaps : Engine.idle_gaps array;
}

(* The gaps are the complement of each disk's [Active] spans within
   [0, makespan], which the No-PM run folds as it charges them; the last
   gap of a disk is terminal. *)
let reference ?(model = Disk_model.ultrastar_36z15) ?obs ~disks requests =
  let base, gaps = Engine.replay_gaps ~model ?obs ~disks requests in
  { model; disks; requests; base; gaps }

let bound ~space (r : reference) =
  Dp_obs.Prof.span "oracle.bound" @@ fun () ->
  let c = costs r.model in
  (* Disk by disk, each disk's gaps in time order. *)
  let gap_j = Float.Array.make 1 0.0 in
  Array.iter
    (fun (g : Engine.idle_gaps) ->
      let n = g.count in
      for i = 0 to n - 1 do
        let floor =
          gap_floor_j space c ~len_ms:(Float.Array.get g.len_ms i)
            ~terminal:(g.terminal && i = n - 1)
        in
        Float.Array.set gap_j 0 (Float.Array.get gap_j 0 +. floor)
      done)
    r.gaps;
  let gap_j = Float.Array.get gap_j 0 in
  let busy_j = busy_floor_j space r.model ~disks:r.disks r.requests in
  { space; energy_j = busy_j +. gap_j; busy_j; gap_j; base = r.base }

let lower_bound ?model ?(space = Full_space) ~disks reqs =
  bound ~space (reference ?model ~disks (Trace.of_list reqs))

let standby_floor_j ?(model = Disk_model.ultrastar_36z15) (r : Engine.result) =
  float_of_int (Array.length r.Engine.per_disk)
  *. j_of ~watts:model.Disk_model.power_standby_w ~ms:r.Engine.makespan_ms

(* --- compiler-directed hints --- *)

(* Replay the nominal (full-speed) timeline the way the engine will —
   FIFO per disk, engine seek distances — and run the per-gap planner on
   every predicted gap.  Where a spin cycle pays off, emit the
   [Spin_down] / [Pre_spin_up] pair; where a speed dip does, emit the
   [Set_rpm] target.  The directives carry nominal timestamps, which is
   also how the engine routes them to gaps. *)
let hints ?(model = Disk_model.ultrastar_36z15) ?(space = Full_space) ?(by_proc = false)
    ~disks (t : Trace.t) =
  let c = costs model in
  (* Planning state per (plan, disk): one plan, or one per processor. *)
  let plans = if by_proc then Int.max 1 t.procs else 1 in
  let completion = Float.Array.make (plans * disks) 0.0 in
  let last_end = Array.make (plans * disks) (-1) in
  let su_ms = ms_of_s model.Disk_model.spin_up_s in
  let hints = Array.make plans [] in
  let emit_for_gap ~plan ~disk ~start_ms ~len_ms ~next_arrival ~terminal =
    let emit h = hints.(plan) <- h :: hints.(plan) in
    (match space with
    | Tpm_space | Full_space -> (
        match best_in c Tpm_space ~len_ms ~terminal with
        | Spin_cycle, _ ->
            emit { Hint.at_ms = start_ms; disk; action = Hint.Spin_down };
            if not terminal then
              emit
                { Hint.at_ms = next_arrival -. su_ms; disk; action = Hint.Pre_spin_up su_ms }
        | _ -> ())
    | Drpm_space -> ());
    match space with
    | Drpm_space | Full_space -> (
        match best_in c Drpm_space ~len_ms ~terminal with
        | Rpm_dip rpm, _ -> emit { Hint.at_ms = start_ms; disk; action = Hint.Set_rpm rpm }
        | _ -> ())
    | Tpm_space -> ()
  in
  for i = 0 to Trace.length t - 1 do
    let plan = if by_proc then t.proc.(i) else 0 in
    let d = t.disk.(i) and arrival = Float.Array.get t.arrival i in
    let k = (plan * disks) + d in
    let done_ms = Float.Array.get completion k in
    if arrival > done_ms then
      emit_for_gap ~plan ~disk:d ~start_ms:done_ms ~len_ms:(arrival -. done_ms)
        ~next_arrival:arrival ~terminal:false;
    let seek_distance = if last_end.(k) < 0 then max_int else t.lba.(i) - last_end.(k) in
    last_end.(k) <- t.lba.(i) + t.size.(i);
    let service =
      Disk_model.service_ms ~seek_distance model ~rpm:model.Disk_model.rpm_max
        ~bytes:t.size.(i)
    in
    Float.Array.set completion k (Float.max done_ms arrival +. service)
  done;
  for plan = 0 to plans - 1 do
    let completion = Float.Array.sub completion (plan * disks) disks in
    let makespan = Float.Array.fold_left Float.max 0.0 completion in
    Float.Array.iteri
      (fun d c ->
        if makespan > c then
          emit_for_gap ~plan ~disk:d ~start_ms:c ~len_ms:(makespan -. c)
            ~next_arrival:makespan ~terminal:true)
      completion
  done;
  let per_plan = Array.map (List.sort Hint.compare_at) hints in
  if plans = 1 then per_plan.(0)
  else begin
    (* The plans' sorted runs merged as a stable sort of their
       concatenation would order them: by time, then disk, then plan.
       Each plan with hints left waits in the heap under its head's time
       with id [disk * plans + plan], which orders the ties the same
       way. *)
    let heads = Minheap.create ~capacity:plans () in
    let wait plan = function
      | (h : Hint.t) :: _ -> Minheap.add heads ~key:h.at_ms ((h.disk * plans) + plan)
      | [] -> ()
    in
    Array.iteri wait per_plan;
    let out = ref [] in
    while not (Minheap.is_empty heads) do
      let plan = Minheap.top heads mod plans in
      match per_plan.(plan) with
      | h :: rest ->
          out := h :: !out;
          per_plan.(plan) <- rest;
          (match rest with
          | (next : Hint.t) :: _ ->
              Minheap.replace_top heads ~key:next.at_ms ((next.disk * plans) + plan)
          | [] -> Minheap.pop heads)
      | [] -> assert false
    done;
    List.rev !out
  end

let hints_of_trace ?model ?space ~disks reqs =
  hints ?model ?space ~disks (Trace.of_list reqs)

let pp_bound ppf b =
  Format.fprintf ppf
    "%s lower bound: %.1f J (busy floor %.1f J + optimal gaps %.1f J; no-PM reference \
     %.1f J)"
    (space_name b.space) b.energy_j b.busy_j b.gap_j b.base.Engine.energy_j
