module Sink = Dp_obs.Sink
module Event = Dp_obs.Event

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

let sample_sorted s =
  let a = Array.sub s.buf 0 s.len in
  Array.stable_sort Float.compare a;
  a

(* The pooled order of sorted runs: a k-way merge through a binary
   min-heap.  Heap slot [i] holds run [run.(i)] and its next sample
   [key.(i)]; [next.(r)] is the position after run [r]'s head.  It costs
   O(n log k) and allocates only the output and three k-entry arrays.
   Responses are finite, so [<] orders them as [Float.compare] does. *)
let merge_sorted runs =
  let k = Array.length runs in
  let out = Array.make (Array.fold_left (fun acc r -> acc + Array.length r) 0 runs) 0.0 in
  let run = Array.make k 0 and key = Array.make k 0.0 and next = Array.make k 1 in
  let size = ref 0 in
  Array.iteri
    (fun r a ->
      if Array.length a > 0 then begin
        run.(!size) <- r;
        key.(!size) <- a.(0);
        incr size
      end)
    runs;
  (* Sift slot [i]'s entry down to its place. *)
  let sift i =
    let n = !size and r = run.(i) and x = key.(i) in
    let i = ref i and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && key.(l + 1) < key.(l) then l + 1 else l in
      if c < n && key.(c) < x then begin
        run.(!i) <- run.(c);
        key.(!i) <- key.(c);
        i := c
      end
      else go := false
    done;
    run.(!i) <- r;
    key.(!i) <- x
  in
  for i = (!size / 2) - 1 downto 0 do
    sift i
  done;
  for j = 0 to Array.length out - 1 do
    out.(j) <- key.(0);
    let r = run.(0) in
    if next.(r) < Array.length runs.(r) then begin
      key.(0) <- runs.(r).(next.(r));
      next.(r) <- next.(r) + 1
    end
    else begin
      decr size;
      run.(0) <- run.(!size);
      key.(0) <- key.(!size)
    end;
    sift 0
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
