module Splitmix = Dp_util.Splitmix
module Trace = Dp_trace.Trace
module Ir = Dp_ir.Ir

type params = {
  requests : int;
  mean_gap_ms : float;
  hot_disks : int;
  hot_start : int;
  hot_bias : float;
  write_ratio : float;
  region_bytes : int;
}

let block = 4096

let draw rng =
  {
    requests = 48 + Splitmix.int rng ~bound:65;
    mean_gap_ms = 400.0 +. (Splitmix.float rng *. 3600.0);
    hot_disks = 1 + Splitmix.int rng ~bound:2;
    hot_start = Splitmix.int rng ~bound:64;
    hot_bias = 0.6 +. (Splitmix.float rng *. 0.3);
    write_ratio = 0.1 +. (Splitmix.float rng *. 0.4);
    region_bytes = (16 + Splitmix.int rng ~bound:49) * (1 lsl 20);
  }

(* Inverse-CDF exponential draw; [u] < 1 so the gap is strictly
   positive, and a floor keeps denormal-tiny gaps out of the arrival
   arithmetic. *)
let exp_gap rng ~mean = Float.max 0.01 (-.mean *. Float.log1p (-.Splitmix.float rng))

let generate rng ~disks p =
  if disks < 1 then invalid_arg "Oltp.generate: disks must be >= 1";
  if p.requests < 0 then invalid_arg "Oltp.generate: requests must be >= 0";
  let hot = min (max p.hot_disks 1) disks in
  let hot_start = p.hot_start mod disks in
  let blocks = max 1 (p.region_bytes / block) in
  let b = Trace.Builder.create p.requests in
  let arrival = ref 0.0 in
  for _ = 1 to p.requests do
    let gap = exp_gap rng ~mean:p.mean_gap_ms in
    arrival := !arrival +. gap;
    let disk =
      if Splitmix.bool rng ~p:p.hot_bias then
        (hot_start + Splitmix.int rng ~bound:hot) mod disks
      else Splitmix.int rng ~bound:disks
    in
    let lba = block * Splitmix.int rng ~bound:blocks in
    (* 4, 8, 16, 32 or 64 KB transfers. *)
    let size = block lsl Splitmix.int rng ~bound:5 in
    let mode = if Splitmix.bool rng ~p:p.write_ratio then Ir.Write else Ir.Read in
    Trace.Builder.add b ~arrival:!arrival ~think:gap ~seg:0 ~address:lba ~lba ~size ~mode
      ~proc:0 ~disk
  done;
  Trace.Builder.finish b
