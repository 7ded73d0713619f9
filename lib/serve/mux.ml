module Splitmix = Dp_util.Splitmix
module Request = Dp_trace.Request

let merge ~rng ~jitter_ms tenants =
  if jitter_ms < 0.0 then invalid_arg "Mux.merge: jitter_ms must be >= 0";
  let shifted =
    List.concat_map
      (fun (t : Tenant.t) ->
        let child = Splitmix.split rng in
        let offset = if jitter_ms > 0.0 then Splitmix.float child *. jitter_ms else 0.0 in
        let first = ref true in
        List.map
          (fun (r : Request.t) ->
            let think =
              if !first then begin
                first := false;
                (* The offset is dead time before the tenant's first
                   request: it rides in that request's think gap. *)
                offset +. r.Request.arrival_ms
              end
              else r.Request.think_ms
            in
            {
              r with
              Request.proc = t.Tenant.index;
              arrival_ms = offset +. r.Request.arrival_ms;
              think_ms = think;
            })
          t.Tenant.stream)
      tenants
  in
  Request.sort_arrival shifted
