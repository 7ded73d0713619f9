module Sink = Dp_obs.Sink
module Event = Dp_obs.Event
module Minheap = Dp_util.Minheap

type tenant_stats = {
  tenant : int;
  requests : int;
  energy_j : float;
  response_mean_ms : float;
  response_p50_ms : float;
  response_p95_ms : float;
  response_p99_ms : float;
  response_max_ms : float;
  slo_violations : int;
  abandoned : int;
}

type slo = {
  deadline_ms : float;
  violations : int;
  abandoned : int;
  availability : float;
}

type summary = {
  tenants : tenant_stats array;
  attributed_j : float;
  unattributed_j : float;
  energy_j : float;
  fairness : float;
  requests : int;
  response_mean_ms : float;
  response_p50_ms : float;
  response_p95_ms : float;
  response_p99_ms : float;
  response_max_ms : float;
  slo : slo option;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (rank - 1)))
  end

(* A growable float sample buffer: tenant streams are short (tens to a
   few hundred responses), so keeping every sample for exact
   percentiles is cheap. *)
type samples = { mutable buf : float array; mutable len : int }

let sample_add s v =
  if s.len = Array.length s.buf then begin
    let bigger = Array.make (max 16 (2 * s.len)) 0.0 in
    Array.blit s.buf 0 bigger 0 s.len;
    s.buf <- bigger
  end;
  s.buf.(s.len) <- v;
  s.len <- s.len + 1

(* A stable ascending sort of a float array by bottom-up merges,
   monomorphic so that every comparison is an inline [<] on unboxed
   floats.  A merge takes from the left run unless the right one is
   strictly smaller, so ties ([-0.] and [0.] included) keep their input
   order.  Samples are responses, never NaN, so [<] orders them as
   [Float.compare] does. *)
let sort_floats (a : float array) =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.make n 0.0) and width = ref 1 in
  while !width < n do
    let s = !src and d = !dst and w = !width in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min n (!lo + w) and hi = Int.min n (!lo + (2 * w)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !j < hi && (!i >= mid || s.(!j) < s.(!i)) then begin
          d.(k) <- s.(!j);
          incr j
        end
        else begin
          d.(k) <- s.(!i);
          incr i
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  if !src != a then Array.blit !src 0 a 0 n

let sample_sorted s =
  let a = Array.sub s.buf 0 s.len in
  sort_floats a;
  a

(* The pooled order of sorted runs: a k-way merge through a heap of the
   runs with samples left, each under its next sample; [next.(r)] is
   the position after run [r]'s head.  It costs O(n log k) and
   allocates only the output, the heap and a k-entry array. *)
let merge_sorted runs =
  let k = Array.length runs in
  let out = Array.make (Array.fold_left (fun acc r -> acc + Array.length r) 0 runs) 0.0 in
  let heads = Minheap.create ~capacity:k () and next = Array.make k 1 in
  Array.iteri (fun r a -> if Array.length a > 0 then Minheap.add heads ~key:a.(0) r) runs;
  for j = 0 to Array.length out - 1 do
    let r = Minheap.top heads in
    let a = runs.(r) and i = next.(r) in
    out.(j) <- a.(i - 1);
    if i < Array.length a then begin
      Minheap.replace_top heads ~key:a.(i) r;
      next.(r) <- i + 1
    end
    else Minheap.pop heads
  done;
  out

let abandon_factor = 4.0

let jain means =
  let n = Array.length means in
  if n = 0 then 1.0
  else begin
    let sum = Array.fold_left ( +. ) 0.0 means in
    let sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 means in
    if sq = 0.0 then 1.0 else sum *. sum /. (float_of_int n *. sq)
  end

let recorder ?deadline_ms ~tenants ~disks () =
  if tenants < 1 then invalid_arg "Account.recorder: tenants must be >= 1";
  if disks < 1 then invalid_arg "Account.recorder: disks must be >= 1";
  (match deadline_ms with
  | Some d when d <= 0.0 -> invalid_arg "Account.recorder: deadline_ms must be > 0"
  | _ -> ());
  let tenant_j = Array.make tenants 0.0 in
  let responses = Array.init tenants (fun _ -> { buf = [||]; len = 0 }) in
  (* SLO accounting: a response past the deadline is a violation; one
     past [abandon_factor] deadlines counts as abandoned — the client
     gave up, so availability is the fraction it actually got served in
     usable time. *)
  let violations = Array.make tenants 0 in
  let abandoned = Array.make tenants 0 in
  (* Energy per disk awaiting a service to claim it, the claimant of a
     disk's trailing spans, and the engine-shaped per-disk totals. *)
  let pending = Array.make disks 0.0 in
  let last_tenant = Array.make disks (-1) in
  let disk_j = Array.make disks 0.0 in
  let sink =
    Sink.stream (fun ev ->
        match ev with
        | Event.Power { disk; energy_j; _ } ->
            pending.(disk) <- pending.(disk) +. energy_j;
            disk_j.(disk) <- disk_j.(disk) +. energy_j
        | Event.Service { disk; proc; arrival_ms; stop_ms; _ } ->
            tenant_j.(proc) <- tenant_j.(proc) +. pending.(disk);
            pending.(disk) <- 0.0;
            last_tenant.(disk) <- proc;
            let resp = stop_ms -. arrival_ms in
            (match deadline_ms with
            | Some d ->
                if resp > d then violations.(proc) <- violations.(proc) + 1;
                if resp > abandon_factor *. d then
                  abandoned.(proc) <- abandoned.(proc) + 1
            | None -> ());
            sample_add responses.(proc) resp
        | Event.Hint_exec _ | Event.Fault _ | Event.Decision _ | Event.Repair _
        | Event.Deadline _ ->
            ())
  in
  let finish () =
    let unattributed = ref 0.0 in
    Array.iteri
      (fun d e ->
        if e <> 0.0 then
          if last_tenant.(d) >= 0 then
            tenant_j.(last_tenant.(d)) <- tenant_j.(last_tenant.(d)) +. e
          else unattributed := !unattributed +. e;
        pending.(d) <- 0.0)
      pending;
    let sorted = Array.map sample_sorted responses in
    let stats =
      Array.init tenants (fun t ->
          let sorted = sorted.(t) in
          let n = Array.length sorted in
          {
            tenant = t;
            requests = n;
            energy_j = tenant_j.(t);
            response_mean_ms =
              (if n = 0 then 0.0
               else Array.fold_left ( +. ) 0.0 sorted /. float_of_int n);
            response_p50_ms = percentile sorted 0.50;
            response_p95_ms = percentile sorted 0.95;
            response_p99_ms = percentile sorted 0.99;
            response_max_ms = (if n = 0 then 0.0 else sorted.(n - 1));
            slo_violations = violations.(t);
            abandoned = abandoned.(t);
          })
    in
    let means =
      Array.of_list
        (List.filter_map
           (fun (s : tenant_stats) ->
             if s.requests > 0 then Some s.response_mean_ms else None)
           (Array.to_list stats))
    in
    let pooled = merge_sorted sorted in
    let pooled_n = Array.length pooled in
    {
      tenants = stats;
      attributed_j = Array.fold_left ( +. ) 0.0 tenant_j;
      unattributed_j = !unattributed;
      energy_j = Array.fold_left ( +. ) 0.0 disk_j;
      fairness = jain means;
      requests = pooled_n;
      response_mean_ms =
        (if pooled_n = 0 then 0.0
         else Array.fold_left ( +. ) 0.0 pooled /. float_of_int pooled_n);
      response_p50_ms = percentile pooled 0.50;
      response_p95_ms = percentile pooled 0.95;
      response_p99_ms = percentile pooled 0.99;
      response_max_ms = (if pooled_n = 0 then 0.0 else pooled.(pooled_n - 1));
      slo =
        (match deadline_ms with
        | None -> None
        | Some d ->
            let v = Array.fold_left ( + ) 0 violations in
            let a = Array.fold_left ( + ) 0 abandoned in
            Some
              {
                deadline_ms = d;
                violations = v;
                abandoned = a;
                availability =
                  (if pooled_n = 0 then 1.0
                   else 1.0 -. (float_of_int a /. float_of_int pooled_n));
              })
    }
  in
  (sink, finish)
