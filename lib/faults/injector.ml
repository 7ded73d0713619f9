module Splitmix = Dp_util.Splitmix

(* The five class flags are fixed at [make]: every fault query of every
   faulted request reads one field instead of scanning the class list. *)
type t = {
  cfg : Fault_model.t;
  spin_on : bool;
  media_on : bool;
  spike_on : bool;
  stuck_on : bool;
  decay_on : bool;
  spin : Splitmix.t array;
  media : Splitmix.t array;
  spike : Splitmix.t array;
  stuck : Splitmix.t array;
  decay : Splitmix.t array;
  stuck_until : float array;  (* per-disk lock expiry, -inf when unlocked *)
}

(* Split order is fixed (class-major, then disk) so a given seed names
   the same stream family regardless of which queries run first. *)
let make cfg ~disks =
  if disks < 1 then invalid_arg "Injector.make: disks must be >= 1";
  let root = Splitmix.create cfg.Fault_model.seed in
  let per_class () =
    let class_root = Splitmix.split root in
    let a = Array.make disks class_root in
    for d = 0 to disks - 1 do
      a.(d) <- Splitmix.split class_root
    done;
    a
  in
  let spin = per_class () in
  let media = per_class () in
  let spike = per_class () in
  let stuck = per_class () in
  (* The decay stream was added after the first four: splitting it last
     keeps every pre-existing stream family byte-identical for a given
     seed. *)
  let decay = per_class () in
  let on c = List.mem c cfg.Fault_model.classes in
  {
    cfg;
    spin_on = on Fault_model.Spin_up_failure;
    media_on = on Fault_model.Media_error;
    spike_on = on Fault_model.Latency_spike;
    stuck_on = on Fault_model.Stuck_rpm;
    decay_on = on Fault_model.Media_decay;
    spin;
    media;
    spike;
    stuck;
    decay;
    stuck_until = Array.make disks neg_infinity;
  }

(* Failures before the first success of a Bernoulli(1 - rate) trial,
   truncated at [max]. *)
let geometric rng ~p ~max =
  let rec go n = if n >= max then n else if Splitmix.bool rng ~p then go (n + 1) else n in
  go 0

let spin_up_failures t ~disk ~max_failures =
  if not t.spin_on then 0
  else geometric t.spin.(disk) ~p:t.cfg.Fault_model.rate ~max:(Stdlib.max 0 max_failures)

let media_retries t ~disk ~max_retries =
  if not t.media_on then 0
  else geometric t.media.(disk) ~p:t.cfg.Fault_model.rate ~max:(Stdlib.max 0 max_retries)

let latency_spike_ms t ~disk =
  if t.spike_on && Splitmix.bool t.spike.(disk) ~p:t.cfg.Fault_model.rate then
    t.cfg.Fault_model.spike_ms
  else 0.0

let decay_defect t ~disk ~surface =
  if surface < 1 then invalid_arg "Injector.decay_defect: surface must be >= 1";
  if t.decay_on && Splitmix.bool t.decay.(disk) ~p:t.cfg.Fault_model.rate then
    Some (Splitmix.int t.decay.(disk) ~bound:surface)
  else None

let is_locked t ~disk ~now_ms =
  t.stuck_on && now_ms < t.stuck_until.(disk)

let rpm_locked t ~disk ~now_ms =
  if not t.stuck_on then false
  else if now_ms < t.stuck_until.(disk) then true
  else if Splitmix.bool t.stuck.(disk) ~p:t.cfg.Fault_model.rate then begin
    t.stuck_until.(disk) <- now_ms +. t.cfg.Fault_model.stuck_window_ms;
    true
  end
  else false
