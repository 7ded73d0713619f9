module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Parallelize = Dp_restructure.Parallelize

type stream = int array
type segments = stream list

(* The trace in arrival order, from every processor's run of requests,
   latest first.  Each run is in {!Request.compare_arrival} order, and
   requests of two processors never tie (the processor breaks it), so
   taking the greatest head each time builds the trace back to front. *)
let merge = function
  | [| run |] -> List.rev run
  | runs ->
      let out = ref [] in
      let rec go () =
        let best = ref (-1) and at = ref neg_infinity in
        for p = 0 to Array.length runs - 1 do
          match runs.(p) with
          | (r : Request.t) :: _ when !best < 0 || Float.compare r.arrival_ms !at >= 0 ->
              best := p;
              at := r.arrival_ms
          | _ -> ()
        done;
        if !best >= 0 then
          match runs.(!best) with
          | r :: rest ->
              out := r :: !out;
              runs.(!best) <- rest;
              go ()
          | [] -> assert false
      in
      go ();
      !out

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
  (* Per processor: its requests so far, latest first; whether each
     arrived strictly after the one before; and its clock. *)
  let runs = Array.make n_proc [] in
  let strict = Array.make n_proc true in
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
        (match runs.(proc) with
        | (prev : Request.t) :: _ when Float.compare prev.arrival_ms clocks.(proc) >= 0 ->
            strict.(proc) <- false
        | _ -> ());
        runs.(proc) <-
          {
            Request.arrival_ms = clocks.(proc);
            think_ms = think.(proc);
            seg;
            address;
            lba;
            size;
            mode = a.mode;
            proc;
            disk;
          }
          :: runs.(proc);
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
     unless two of its requests tie (a cost model with a zero-cost
     step).  Such a run is put in the order a stable sort of the whole
     trace, latest generated first, gives it. *)
  Array.iteri
    (fun p run -> if not strict.(p) then runs.(p) <- List.rev (Request.sort_arrival run))
    runs;
  merge runs

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

let summarize ?(cost = Cost_model.default) reqs =
  let n_proc = 1 + List.fold_left (fun acc (r : Request.t) -> Int.max acc r.proc) (-1) reqs in
  (* Per-processor state, mirroring trace generation: the disk and end
     address of the last request, to charge seeks only on discontiguous
     accesses; its nominal completion; and the compute time so far,
     approximated from the arrival spacing.  With one processor this is
     exact, with several it is the sum of per-processor busy gaps. *)
  let disk = Array.make n_proc (-1) and stop = Array.make n_proc 0 in
  let last_end = Array.make n_proc 0.0 and compute = Array.make n_proc 0.0 in
  let requests = ref 0 and bytes = ref 0 in
  (* [io_ms] and [makespan_ms], unboxed. *)
  let sums = [| 0.0; 0.0 |] in
  List.iter
    (fun (r : Request.t) ->
      let p = r.proc in
      let seek_distance = if disk.(p) = r.disk then r.lba - stop.(p) else max_int in
      disk.(p) <- r.disk;
      stop.(p) <- r.lba + r.size;
      let service = Cost_model.service_ms ~seek_distance cost ~bytes:r.size in
      incr requests;
      bytes := !bytes + r.size;
      sums.(0) <- sums.(0) +. service;
      sums.(1) <- Float.max sums.(1) (r.arrival_ms +. service);
      compute.(p) <- compute.(p) +. Float.max 0.0 (r.arrival_ms -. last_end.(p));
      last_end.(p) <- r.arrival_ms +. service)
    reqs;
  {
    requests = !requests;
    bytes = !bytes;
    makespan_ms = sums.(1);
    compute_ms = Array.fold_left ( +. ) 0.0 compute;
    io_ms = sums.(0);
  }

let io_fraction s =
  let busy = s.compute_ms +. s.io_ms in
  if busy <= 0.0 then 0.0 else s.io_ms /. busy
