type t = {
  cpu_hz : float;
  seek_ms : float;
  rotation_ms : float;
  transfer_mb_s : float;
}

let default =
  { cpu_hz = 750e6; seek_ms = 3.4; rotation_ms = 2.0; transfer_mb_s = 55.0 }

let compute_ms t ~cycles = float_of_int cycles /. t.cpu_hz *. 1000.0

let short_seek_bytes = 32 * 1024 * 1024

let seek_ms_of_distance t distance =
  let d = abs distance in
  if d = 0 then 0.0 else if d <= short_seek_bytes then 0.4 *. t.seek_ms else t.seek_ms

let service_ms ~seek_distance t ~bytes =
  seek_ms_of_distance t seek_distance
  +. t.rotation_ms
  +. (float_of_int bytes /. (t.transfer_mb_s *. 1024.0 *. 1024.0) *. 1000.0)
