module Splitmix = Dp_util.Splitmix
module Trace = Dp_trace.Trace

(* Tenant [index]'s stream shifted by [offset] as a run of its own: the
   offset lands in every arrival and, as dead time before the first
   request, in that request's think gap. *)
let shifted ~offset ~index (s : Trace.t) =
  let n = Trace.length s in
  let b = Trace.Builder.create n in
  for i = 0 to n - 1 do
    let arrival = offset +. Float.Array.get s.arrival i in
    Trace.Builder.add b ~arrival
      ~think:(if i = 0 then arrival else Float.Array.get s.think i)
      ~seg:s.seg.(i) ~address:s.address.(i) ~lba:s.lba.(i) ~size:s.size.(i)
      ~mode:(Trace.mode s i) ~proc:index ~disk:s.disk.(i)
  done;
  Trace.Builder.finish b

let trace ~rng ~jitter_ms tenants =
  if jitter_ms < 0.0 then invalid_arg "Mux.trace: jitter_ms must be >= 0";
  let runs =
    Array.map
      (fun (t : Tenant.t) ->
        let child = Splitmix.split rng in
        let offset = if jitter_ms > 0.0 then Splitmix.float child *. jitter_ms else 0.0 in
        shifted ~offset ~index:t.Tenant.index t.Tenant.stream)
      (Array.of_list tenants)
  in
  Trace.merge runs

let merge ~rng ~jitter_ms tenants = Trace.to_list (trace ~rng ~jitter_ms tenants)
