type histogram = {
  edges : float array;
  counts : int array;
  mass_s : float array;
}

let default_edges = [| 1.0; 4.0; 15.2; 31.6; 120.0 |]

let of_trace ?(edges = default_edges) ?(cost = Cost_model.default) (t : Trace.t) =
  let n = Array.length edges + 1 in
  let counts = Array.make n 0 and mass_s = Array.make n 0.0 in
  (* Per disk: whether it served yet, the end address of its last
     request, and that request's nominal completion. *)
  let seen = Array.make t.disks false in
  let pos = Array.make t.disks 0 and last = Float.Array.make t.disks 0.0 in
  for i = 0 to Trace.length t - 1 do
    let d = t.disk.(i) and arrival = Float.Array.get t.arrival i in
    let seek_distance = if seen.(d) then t.lba.(i) - pos.(d) else max_int in
    pos.(d) <- t.lba.(i) + t.size.(i);
    let completion =
      arrival +. Cost_model.service_ms ~seek_distance cost ~bytes:t.size.(i)
    in
    (if seen.(d) && arrival > Float.Array.get last d then begin
       let gap = (arrival -. Float.Array.get last d) /. 1000.0 in
       let b = ref 0 in
       while !b < Array.length edges && gap >= edges.(!b) do incr b done;
       counts.(!b) <- counts.(!b) + 1;
       mass_s.(!b) <- mass_s.(!b) +. gap
     end);
    seen.(d) <- true;
    Float.Array.set last d completion
  done;
  { edges; counts; mass_s }

let total_gaps h = Array.fold_left ( + ) 0 h.counts
let total_mass_s h = Array.fold_left ( +. ) 0.0 h.mass_s

let exploitable_mass_s h ~threshold_s =
  let acc = ref 0.0 in
  Array.iteri
    (fun k m ->
      let lower = if k = 0 then 0.0 else h.edges.(k - 1) in
      if lower >= threshold_s then acc := !acc +. m)
    h.mass_s;
  !acc

let pp ppf h =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun k count ->
      let lo = if k = 0 then 0.0 else h.edges.(k - 1) in
      let hi_label =
        if k < Array.length h.edges then Printf.sprintf "%g s" h.edges.(k) else "inf"
      in
      Format.fprintf ppf "%6g s .. %-8s %7d gaps %10.0f s idle@," lo hi_label count
        h.mass_s.(k))
    h.counts;
  Format.fprintf ppf "@]"
