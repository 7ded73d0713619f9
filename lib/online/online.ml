type config = { epoch_requests : int; alpha : float; guard : float }

let default = { epoch_requests = 16; alpha = 0.25; guard = 2.0 }

let config ?(epoch_requests = default.epoch_requests) ?(alpha = default.alpha)
    ?(guard = default.guard) () =
  if epoch_requests < 1 then
    invalid_arg (Printf.sprintf "Online.config: epoch_requests must be >= 1 (got %d)" epoch_requests);
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg (Printf.sprintf "Online.config: alpha must be in (0, 1] (got %g)" alpha);
  if guard < 1.0 then
    invalid_arg (Printf.sprintf "Online.config: guard must be >= 1.0 (got %g)" guard);
  { epoch_requests; alpha; guard }

let describe c =
  Printf.sprintf "online adaptive (epoch %d, alpha %.2f, guard %.1f)" c.epoch_requests
    c.alpha c.guard

type hardware = {
  breakeven_ms : float;
  spin_down_ms : float;
  spin_up_ms : float;
  rpm_max : int;
  rpm_min : int;
  rpm_step : int;
  level_ms : float;
}

type mech = Stay | Spin of float | Dip of int * float

(* Per-disk learner: the smoothed gap estimate, the arrival that last
   updated it, and the epoch-frozen decision derived from it. *)
type disk_state = {
  mutable last_arrival_ms : float;  (* nan before the first sample *)
  mutable ewma_ms : float;  (* 0 before the first gap sample *)
  mutable samples : int;  (* gap samples folded into the estimate *)
  mutable in_epoch : int;  (* arrivals since the last re-derivation *)
  mutable epochs : int;
  mutable mech : mech;
}

type t = { cfg : config; hw : hardware; per_disk : disk_state array }

let make cfg ~hardware ~disks =
  if disks < 1 then invalid_arg "Online.make: disks must be >= 1";
  {
    cfg;
    hw = hardware;
    per_disk =
      Array.init disks (fun _ ->
          {
            last_arrival_ms = Float.nan;
            ewma_ms = 0.0;
            samples = 0;
            in_epoch = 0;
            epochs = 0;
            (* No evidence yet: stay at speed, never stall the first
               requests of a cold disk. *)
            mech = Stay;
          });
  }

(* Derive the epoch's mechanism from the current estimate.  Order of
   preference mirrors the energy ladder: a full spin cycle saves the
   most when the gap amortizes it; otherwise the deepest feasible RPM
   dip; otherwise nothing. *)
let derive cfg hw ds =
  if ds.samples = 0 then Stay
  else begin
    let predicted = ds.ewma_ms in
    let spin_round_trip = hw.spin_down_ms +. hw.spin_up_ms in
    if predicted >= cfg.guard *. Float.max hw.breakeven_ms spin_round_trip then
      (* Spin earlier than the break-even rule once the stream has shown
         long gaps: a quarter of the predicted gap, never beyond the
         break-even threshold (which is already safe by construction). *)
      Spin (Float.min hw.breakeven_ms (predicted /. 4.0))
    else begin
      let max_levels = (hw.rpm_max - hw.rpm_min) / hw.rpm_step in
      let threshold = hw.level_ms in
      let fits levels =
        (* Ramp down and back up, plus a dwell worth one more level
           transition, all inside the guarded prediction. *)
        predicted
        >= cfg.guard *. ((2.0 *. float_of_int levels *. hw.level_ms) +. threshold)
      in
      let rec deepest l = if l > 0 && not (fits l) then deepest (l - 1) else l in
      let levels = deepest max_levels in
      if levels = 0 then Stay
      else Dip (hw.rpm_max - (levels * hw.rpm_step), threshold)
    end
  end

let observe t ~disk ~now_ms =
  let ds = t.per_disk.(disk) in
  if not (Float.is_nan ds.last_arrival_ms) then begin
    let gap = Float.max 0.0 (now_ms -. ds.last_arrival_ms) in
    if ds.samples = 0 then ds.ewma_ms <- gap
    else ds.ewma_ms <- (t.cfg.alpha *. gap) +. ((1.0 -. t.cfg.alpha) *. ds.ewma_ms);
    ds.samples <- ds.samples + 1
  end;
  ds.last_arrival_ms <- now_ms;
  ds.in_epoch <- ds.in_epoch + 1;
  if ds.in_epoch >= t.cfg.epoch_requests then begin
    ds.in_epoch <- 0;
    ds.epochs <- ds.epochs + 1;
    ds.mech <- derive t.cfg t.hw ds
  end

let decide t ~disk = t.per_disk.(disk).mech
let epoch t ~disk = t.per_disk.(disk).epochs
