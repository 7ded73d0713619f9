type t = {
  name : string;
  capacity_gb : float;
  cache_mb : int;
  rpm_max : int;
  rpm_min : int;
  rpm_step : int;
  seek_ms : float;
  rotation_ms : float;
  transfer_mb_s : float;
  power_active_w : float;
  power_idle_w : float;
  power_standby_w : float;
  spin_down_j : float;
  spin_down_s : float;
  spin_up_j : float;
  spin_up_s : float;
  tpm_breakeven_s : float;
  rated_start_stop_cycles : int;
  spare_blocks : int;
  remap_penalty_ms : float;
}

let ultrastar_36z15 =
  {
    name = "IBM Ultrastar 36Z15";
    capacity_gb = 36.7;
    cache_mb = 4;
    rpm_max = 15_000;
    rpm_min = 3_000;
    rpm_step = 3_000;
    seek_ms = 3.4;
    rotation_ms = 2.0;
    transfer_mb_s = 55.0;
    power_active_w = 13.5;
    power_idle_w = 10.2;
    power_standby_w = 2.5;
    spin_down_j = 13.0;
    spin_down_s = 1.5;
    spin_up_j = 135.0;
    spin_up_s = 10.9;
    tpm_breakeven_s = 15.2;
    rated_start_stop_cycles = 50_000;
    (* Spare-pool remapping (arXiv 1908.01167): enterprise drives
       reserve a spare area per zone; the detour to it costs about one
       average seek plus one rotational latency on every access to a
       remapped block. *)
    spare_blocks = 256;
    remap_penalty_ms = 5.4;
  }

let rpm_levels t =
  let rec up r acc = if r > t.rpm_max then List.rev acc else up (r + t.rpm_step) (r :: acc) in
  up t.rpm_min []

let level_count t = List.length (rpm_levels t)

let rpm_of_level t level =
  let levels = rpm_levels t in
  match List.nth_opt levels level with
  | Some r -> r
  | None ->
      invalid_arg
        (Printf.sprintf "Disk_model.rpm_of_level: level %d outside [0, %d)" level
           (List.length levels))

let top_level t = level_count t - 1

let check_rpm t rpm =
  if rpm < t.rpm_min || rpm > t.rpm_max then
    invalid_arg (Printf.sprintf "Disk_model: rpm %d outside [%d, %d]" rpm t.rpm_min t.rpm_max)

let short_seek_bytes = 32 * 1024 * 1024

let seek_class distance =
  let d = abs distance in
  if d = 0 then 0 else if d <= short_seek_bytes then 1 else 2

let seek_ms_of_distance t distance =
  match seek_class distance with 0 -> 0.0 | 1 -> 0.4 *. t.seek_ms | _ -> t.seek_ms

let service_ms ~seek_distance t ~rpm ~bytes =
  check_rpm t rpm;
  let slowdown = float_of_int t.rpm_max /. float_of_int rpm in
  seek_ms_of_distance t seek_distance
  +. (t.rotation_ms *. slowdown)
  +. (float_of_int bytes /. (t.transfer_mb_s *. 1024.0 *. 1024.0) *. 1000.0 *. slowdown)

(* First touch of a grown bad sector: seek to the spare area, wait the
   rotation, write the relocated block, seek back. *)
let remap_ms t ~rpm ~block_bytes =
  t.seek_ms +. service_ms ~seek_distance:max_int t ~rpm ~bytes:block_bytes

let quad_frac t rpm =
  let f = float_of_int rpm /. float_of_int t.rpm_max in
  f *. f

let idle_power_w t ~rpm =
  check_rpm t rpm;
  t.power_standby_w +. ((t.power_idle_w -. t.power_standby_w) *. quad_frac t rpm)

let active_power_w t ~rpm =
  check_rpm t rpm;
  idle_power_w t ~rpm +. ((t.power_active_w -. t.power_idle_w) *. quad_frac t rpm)

let transition_s t ~rpm_from ~rpm_to =
  if rpm_from = rpm_to then 0.0
  else begin
    let delta = float_of_int (abs (rpm_to - rpm_from)) /. float_of_int t.rpm_max in
    if rpm_to > rpm_from then t.spin_up_s *. delta else t.spin_down_s *. delta
  end

let drpm_level_transition_s _t = 0.4

let drpm_transition_j t ~rpm_from ~rpm_to =
  let levels = abs (rpm_to - rpm_from) / t.rpm_step in
  let faster = max rpm_from rpm_to in
  float_of_int levels *. drpm_level_transition_s t *. active_power_w t ~rpm:faster

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s: %.1f GB, %d MB cache, %d RPM (DRPM %d..%d step %d)@,\
     seek %.1f ms, rotation %.1f ms, transfer %.1f MB/s@,\
     power: active %.1f W, idle %.1f W, standby %.1f W@,\
     spin-down %.1f J / %.1f s, spin-up %.1f J / %.1f s, break-even %.1f s@]"
    t.name t.capacity_gb t.cache_mb t.rpm_max t.rpm_min t.rpm_max t.rpm_step t.seek_ms
    t.rotation_ms t.transfer_mb_s t.power_active_w t.power_idle_w t.power_standby_w
    t.spin_down_j t.spin_down_s t.spin_up_j t.spin_up_s t.tpm_breakeven_s
