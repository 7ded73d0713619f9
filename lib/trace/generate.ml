module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Parallelize = Dp_restructure.Parallelize

type stream = int array
type segments = stream list

let nest_table (prog : Ir.program) =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (n : Ir.nest) -> Hashtbl.add tbl n.nest_id n) prog.Ir.nests;
  tbl

let trace ?(cost = Cost_model.default) layout (prog : Ir.program) (g : Concrete.graph)
    per_proc =
  Dp_obs.Prof.span "trace.generate" @@ fun () ->
  let n_proc = Array.length per_proc in
  if n_proc = 0 then invalid_arg "Generate.trace: no processors";
  let n_segments = List.length per_proc.(0) in
  Array.iter
    (fun segs ->
      if List.length segs <> n_segments then
        invalid_arg "Generate.trace: processors disagree on segment count")
    per_proc;
  let nests = nest_table prog in
  let requests = ref [] in
  let clocks = Array.make n_proc 0.0 in
  (* Compute time accumulated since the same processor's last request
     (or segment start): the closed-loop think time. *)
  let think = Array.make n_proc 0.0 in
  let seg_index = ref 0 in
  (* Per-processor stream position on disk: (disk, end address) of the
     last request, to charge seeks only on discontiguous accesses. *)
  let last_pos = Array.make n_proc (-1, -1) in
  let run_instance proc seq =
    let inst = g.Concrete.instances.(seq) in
    let nest = Hashtbl.find nests inst.Concrete.nest_id in
    List.iter
      (fun (s : Ir.stmt) ->
        let compute = Cost_model.compute_ms cost ~cycles:s.work_cycles in
        clocks.(proc) <- clocks.(proc) +. compute;
        think.(proc) <- think.(proc) +. compute;
        let env = Ir.env_of_iteration nest inst.Concrete.iter in
        List.iter
          (fun (r : Ir.array_ref) ->
            let coords = List.map (Dp_affine.Affine.eval env) r.subscripts in
            let disk, address, size = Layout.request_of_element layout r.array coords in
            let lba = Layout.lba_of_element layout r.array coords in
            let seek_distance =
              match last_pos.(proc) with
              | d, e when d = disk && e >= 0 -> lba - e
              | _ -> max_int
            in
            last_pos.(proc) <- (disk, lba + size);
            requests :=
              {
                Request.arrival_ms = clocks.(proc);
                think_ms = think.(proc);
                seg = !seg_index;
                address;
                lba;
                size;
                mode = r.mode;
                proc;
                disk;
              }
              :: !requests;
            think.(proc) <- 0.0;
            clocks.(proc) <- clocks.(proc) +. Cost_model.service_ms ~seek_distance cost ~bytes:size)
          s.refs)
      nest.Ir.body
  in
  for seg = 0 to n_segments - 1 do
    seg_index := seg;
    for proc = 0 to n_proc - 1 do
      let stream = List.nth per_proc.(proc) seg in
      Array.iter (run_instance proc) stream
    done;
    (* Fork-join barrier: every processor resumes at the latest clock,
       and pending think time does not carry across the barrier. *)
    let latest = Array.fold_left max 0.0 clocks in
    Array.fill clocks 0 n_proc latest;
    Array.fill think 0 n_proc 0.0
  done;
  Request.sort_arrival !requests

let single_stream _g ~order = [| [ order ] |]

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
