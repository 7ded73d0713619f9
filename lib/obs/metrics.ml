type histogram = {
  h_name : string;
  edges : float array;
  counts : int array;
  mutable sum : float;
  mutable n : int;
  mutable vmax : float;
}

let log_edges ?(per_decade = 1) ~lo ~hi () =
  if lo <= 0.0 || hi <= lo then invalid_arg "Metrics.log_edges: need 0 < lo < hi";
  if per_decade < 1 then invalid_arg "Metrics.log_edges: per_decade must be >= 1";
  let ratio = 10.0 ** (1.0 /. float_of_int per_decade) in
  let rec go acc v = if v >= hi *. (1.0 -. 1e-9) then List.rev (hi :: acc) else go (v :: acc) (v *. ratio) in
  Array.of_list (go [] lo)

let default_edges = log_edges ~lo:1.0 ~hi:1e7 ()

let histogram ?(edges = default_edges) h_name =
  if Array.length edges = 0 then invalid_arg "Metrics.histogram: empty edges";
  Array.iteri
    (fun k e -> if k > 0 && e <= edges.(k - 1) then invalid_arg "Metrics.histogram: edges not ascending")
    edges;
  {
    h_name;
    edges;
    counts = Array.make (Array.length edges + 1) 0;
    sum = 0.0;
    n = 0;
    vmax = 0.0;
  }

let observe h v =
  let b = ref 0 in
  while !b < Array.length h.edges && v >= h.edges.(!b) do incr b done;
  h.counts.(!b) <- h.counts.(!b) + 1;
  h.sum <- h.sum +. v;
  h.n <- h.n + 1;
  if v > h.vmax then h.vmax <- v

let mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n

let quantile h q =
  if h.n = 0 then 0.0
  else begin
    let want = q *. float_of_int h.n in
    let acc = ref 0 and k = ref 0 in
    while !k < Array.length h.counts - 1 && float_of_int (!acc + h.counts.(!k)) < want do
      acc := !acc + h.counts.(!k);
      incr k
    done;
    if !k < Array.length h.edges then h.edges.(!k) else h.vmax
  end

let pp_histogram ppf h =
  Format.fprintf ppf "@[<v>%s: %d observation(s), mean %.2f, max %.2f@," h.h_name h.n (mean h)
    h.vmax;
  Array.iteri
    (fun k count ->
      if count > 0 then begin
        let lo = if k = 0 then 0.0 else h.edges.(k - 1) in
        let hi_label =
          if k < Array.length h.edges then Printf.sprintf "%g" h.edges.(k) else "inf"
        in
        Format.fprintf ppf "  %10g .. %-10s %8d  %5.1f%%@," lo hi_label count
          (100.0 *. float_of_int count /. float_of_int h.n)
      end)
    h.counts;
  Format.fprintf ppf "@]"
