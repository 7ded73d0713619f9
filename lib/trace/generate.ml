module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Parallelize = Dp_restructure.Parallelize

type stream = int array
type segments = stream list

let trace ?(cost = Cost_model.default) layout (prog : Ir.program)
    (instances : Concrete.instance array) per_proc =
  Dp_obs.Prof.span "trace.generate" @@ fun () ->
  let n_proc = Array.length per_proc in
  if n_proc = 0 then invalid_arg "Generate.trace: no processors";
  let per_proc = Array.map Array.of_list per_proc in
  let n_segments = Array.length per_proc.(0) in
  Array.iter
    (fun segs ->
      if Array.length segs <> n_segments then
        invalid_arg "Generate.trace: processors disagree on segment count")
    per_proc;
  let code = Ir.Compiled.compile prog in
  let entries = Array.of_list layout.Layout.entries in
  let compute_ms =
    Array.map
      (fun (n : Ir.Compiled.nest) ->
        Array.map
          (fun (s : Ir.Compiled.stmt) -> Cost_model.compute_ms cost ~cycles:s.work_cycles)
          n.body)
      code
  in
  (* Per processor: its column run of requests, sized to the accesses
     its instances make, and its clock. *)
  let accesses_of =
    Array.map
      (fun (n : Ir.Compiled.nest) ->
        Array.fold_left
          (fun acc (s : Ir.Compiled.stmt) -> acc + Array.length s.accesses)
          0 n.body)
      code
  in
  let runs =
    Array.map
      (fun segs ->
        let count acc seq = acc + accesses_of.(instances.(seq).Concrete.nest) in
        Trace.Builder.create
          (Array.fold_left (fun acc stream -> Array.fold_left count acc stream) 0 segs))
      per_proc
  in
  let clocks = Array.make n_proc 0.0 in
  (* Compute time accumulated since the same processor's last request
     (or segment start): the closed-loop think time. *)
  let think = Array.make n_proc 0.0 in
  (* Per-processor stream position on disk: the disk and end address of
     the last request, to charge seeks only on discontiguous accesses. *)
  let last_disk = Array.make n_proc (-1) and last_end = Array.make n_proc 0 in
  let run_instance proc seg seq =
    let inst = instances.(seq) in
    let iter = inst.Concrete.iter in
    let compute = compute_ms.(inst.Concrete.nest) in
    let body = code.(inst.Concrete.nest).body in
    for k = 0 to Array.length body - 1 do
      clocks.(proc) <- clocks.(proc) +. compute.(k);
      think.(proc) <- think.(proc) +. compute.(k);
      let accesses = body.(k).accesses in
      for i = 0 to Array.length accesses - 1 do
        let a = accesses.(i) in
        let e = entries.(a.array) in
        let disk, address, lba = Layout.locate e (Layout.index e a iter) in
        let size = e.Layout.decl.Ir.elem_size in
        let seek_distance =
          if last_disk.(proc) = disk then lba - last_end.(proc) else max_int
        in
        last_disk.(proc) <- disk;
        last_end.(proc) <- lba + size;
        Trace.Builder.add runs.(proc) ~arrival:clocks.(proc) ~think:think.(proc) ~seg ~address
          ~lba ~size ~mode:a.mode ~proc ~disk;
        think.(proc) <- 0.0;
        clocks.(proc) <-
          clocks.(proc) +. Cost_model.service_ms ~seek_distance cost ~bytes:size
      done
    done
  in
  for seg = 0 to n_segments - 1 do
    for proc = 0 to n_proc - 1 do
      Array.iter (run_instance proc seg) per_proc.(proc).(seg)
    done;
    (* Fork-join barrier: every processor resumes at the latest clock,
       and pending think time does not carry across the barrier. *)
    let latest = Array.fold_left max 0.0 clocks in
    Array.fill clocks 0 n_proc latest;
    Array.fill think 0 n_proc 0.0
  done;
  (* A processor's clock never runs back, so its run is in arrival order
     unless two of its requests tie (a cost model with a zero-cost step)
     on arrival with the later one at a lower address; finishing the run
     sorts it stably, so requests that tie on both stay in program
     order.  The runs then merge by index. *)
  Trace.merge (Array.map Trace.Builder.finish runs)

let single_stream ~order = [| [ order ] |]

let original_segments (prog : Ir.program) (g : Concrete.graph)
    (a : Parallelize.assignment) =
  let nests = List.length prog.Ir.nests in
  let part = Parallelize.nest_parts prog g a in
  (* A counting sort: each bucket lists its instances in original order. *)
  let size = Array.make (a.Parallelize.procs * nests) 0 in
  Array.iter (fun p -> size.(p) <- size.(p) + 1) part;
  let bucket = Array.map (fun k -> Array.make k 0) size in
  Array.fill size 0 (Array.length size) 0;
  Array.iteri
    (fun seq p ->
      bucket.(p).(size.(p)) <- seq;
      size.(p) <- size.(p) + 1)
    part;
  Array.init a.Parallelize.procs (fun proc ->
      Array.to_list (Array.sub bucket (proc * nests) nests))

type summary = {
  requests : int;
  bytes : int;
  makespan_ms : float;
  compute_ms : float;
  io_ms : float;
}

let summarize_trace ?(cost = Cost_model.default) (t : Trace.t) =
  let n_proc = t.procs in
  (* Per-processor state, mirroring trace generation: the disk and end
     address of the last request, to charge seeks only on discontiguous
     accesses; its nominal completion; and the compute time so far,
     approximated from the arrival spacing.  With one processor this is
     exact, with several it is the sum of per-processor busy gaps. *)
  let disk = Array.make n_proc (-1) and stop = Array.make n_proc 0 in
  let last_end = Array.make n_proc 0.0 and compute = Array.make n_proc 0.0 in
  let bytes = ref 0 in
  (* [io_ms] and [makespan_ms], unboxed. *)
  let sums = [| 0.0; 0.0 |] in
  for i = 0 to Trace.length t - 1 do
    let p = t.proc.(i) and d = t.disk.(i) and lba = t.lba.(i) and size = t.size.(i) in
    let arrival = Float.Array.get t.arrival i in
    let seek_distance = if disk.(p) = d then lba - stop.(p) else max_int in
    disk.(p) <- d;
    stop.(p) <- lba + size;
    let service = Cost_model.service_ms ~seek_distance cost ~bytes:size in
    bytes := !bytes + size;
    sums.(0) <- sums.(0) +. service;
    sums.(1) <- Float.max sums.(1) (arrival +. service);
    compute.(p) <- compute.(p) +. Float.max 0.0 (arrival -. last_end.(p));
    last_end.(p) <- arrival +. service
  done;
  {
    requests = Trace.length t;
    bytes = !bytes;
    makespan_ms = sums.(1);
    compute_ms = Array.fold_left ( +. ) 0.0 compute;
    io_ms = sums.(0);
  }

let summarize ?cost reqs = summarize_trace ?cost (Trace.of_list reqs)

let io_fraction s =
  let busy = s.compute_ms +. s.io_ms in
  if busy <= 0.0 then 0.0 else s.io_ms /. busy
