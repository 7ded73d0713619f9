(* The compiled per-instance kernels against the name-resolving passes
   they replaced.  Each reference below evaluates accesses through
   [Ir.element_accesses] or [Ir.env_of_iteration], finds nests and
   arrays by name, and (for the trace) sorts the whole reversed request
   list; every kernel's output must equal its reference's byte for byte
   over chaos scenario programs, at 1-4 processors, in every mode, and
   under a cost model whose zero-cost service ties a processor's
   requests. *)

module Ir = Dp_ir.Ir
module Affine = Dp_affine.Affine
module Layout = Dp_layout.Layout
module Analysis = Dp_dependence.Analysis
module Concrete = Dp_dependence.Concrete
module Cluster = Dp_restructure.Cluster
module Parallelize = Dp_restructure.Parallelize
module Layout_opt = Dp_restructure.Layout_opt
module Cost_model = Dp_trace.Cost_model
module Generate = Dp_trace.Generate
module Request = Dp_trace.Request
module Pipeline = Dp_pipeline.Pipeline
module Scenario = Dp_chaos.Scenario
module Listx = Dp_util.Listx

let bytes x = Marshal.to_string x [ Marshal.No_sharing ]
let nest_of (prog : Ir.program) id =
  List.find (fun (n : Ir.nest) -> n.nest_id = id) prog.nests

let accesses_of prog (inst : Concrete.instance) =
  Ir.element_accesses (nest_of prog inst.nest_id) inst.iter

(* --- references --- *)

(* Two enumerations of the iteration space and string-keyed element
   spaces; out-of-bounds coordinates wrap modulo their extent. *)
let graph_reference (prog : Ir.program) =
  let space = Hashtbl.create 8 and total = ref 0 in
  List.iter
    (fun (a : Ir.array_decl) ->
      Hashtbl.add space a.name (!total, Array.of_list a.dims);
      total := !total + Ir.array_elems a)
    prog.arrays;
  let key array coords =
    let base, dims = Hashtbl.find space array in
    let lin = ref 0 in
    List.iteri
      (fun k c ->
        let e = dims.(k) in
        lin := (!lin * e) + (((c mod e) + e) mod e))
      coords;
    base + !lin
  in
  let instances =
    Array.of_list
      (List.concat_map
         (fun (n : Ir.nest) -> List.map (fun it -> (n, it)) (Ir.nest_iterations n))
         prog.nests)
  in
  let n = Array.length instances in
  let writes_left = Array.make !total 0 in
  Array.iter
    (fun (nest, it) ->
      List.iter
        (fun ((r : Ir.array_ref), coords) ->
          if r.mode = Ir.Write then
            let k = key r.array coords in
            writes_left.(k) <- writes_left.(k) + 1)
        (Ir.element_accesses nest it))
    instances;
  let last_writer = Array.make !total (-1) and readers = Array.make !total [] in
  let pred_lists = Array.make n [] in
  let add src dst =
    if src >= 0 && src <> dst then pred_lists.(dst) <- src :: pred_lists.(dst)
  in
  Array.iteri
    (fun seq (nest, it) ->
      List.iter
        (fun ((r : Ir.array_ref), coords) ->
          let k = key r.array coords in
          match r.mode with
          | Ir.Read ->
              add last_writer.(k) seq;
              if writes_left.(k) > 0 then readers.(k) <- seq :: readers.(k)
          | Ir.Write ->
              add last_writer.(k) seq;
              List.iter (fun rd -> add rd seq) readers.(k);
              readers.(k) <- [];
              last_writer.(k) <- seq;
              writes_left.(k) <- writes_left.(k) - 1)
        (Ir.element_accesses nest it))
    instances;
  let preds = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) pred_lists in
  let succ_lists = Array.make n [] in
  Array.iteri
    (fun dst -> Array.iter (fun src -> succ_lists.(src) <- dst :: succ_lists.(src)))
    preds;
  let succs = Array.map (fun l -> Array.of_list (List.sort compare l)) succ_lists in
  ( Array.mapi (fun seq ((nest : Ir.nest), it) -> (seq, nest.nest_id, it)) instances,
    preds,
    succs )

let key_reference policy = function
  | [] -> -1
  | first :: _ as disks -> (
      match policy with
      | Cluster.First_ref -> first
      | Cluster.Min_disk -> List.fold_left min first disks
      | Cluster.Majority -> (
          match
            Listx.max_by (fun (_, group) -> List.length group) (Listx.group_by Fun.id disks)
          with
          | Some (d, _) -> d
          | None -> first))

let table_reference policy layout prog (g : Concrete.graph) =
  let key =
    Array.map
      (fun inst ->
        accesses_of prog inst
        |> List.map (fun ((r : Ir.array_ref), coords) ->
               Layout.disk_of_element layout r.array coords)
        |> key_reference policy)
      g.instances
  in
  let disks = Array.fold_left (fun acc k -> max acc (k + 1)) layout.Layout.disk_count key in
  { Cluster.key; disks }

let clamp procs p = if p < 0 then 0 else if p >= procs then procs - 1 else p

let conventional_reference prog (g : Concrete.graph) ~procs =
  let owner =
    Array.map
      (fun (inst : Concrete.instance) ->
        let n = nest_of prog inst.nest_id in
        match Analysis.outermost_parallel_loop n with
        | None -> 0
        | Some k ->
            let env = Ir.env_of_iteration n inst.iter in
            let l = List.nth n.loops k in
            let lo = Affine.eval env l.lo and hi = Affine.eval env l.hi in
            let total = hi - lo + 1 in
            if total <= 0 then 0 else clamp procs ((inst.iter.(k) - lo) * procs / total))
      g.instances
  in
  { Parallelize.procs; owner }

(* The most-referenced array, the first declared among equals. *)
let anchor_reference (prog : Ir.program) =
  let refs name =
    List.length
      (List.concat_map
         (fun (n : Ir.nest) ->
           List.concat_map
             (fun (s : Ir.stmt) ->
               List.filter (fun (r : Ir.array_ref) -> r.array = name) s.refs)
             n.body)
         prog.nests)
  in
  fst
    (List.fold_left
       (fun (best, c) (a : Ir.array_decl) ->
         if refs a.name > c then (a.name, refs a.name) else (best, c))
       ("", 0) prog.arrays)

let layout_aware_reference layout prog (g : Concrete.graph) ~procs =
  let anchor = anchor_reference prog in
  let disks = layout.Layout.disk_count in
  let fallback = conventional_reference prog g ~procs in
  let tie_break = ref 0 in
  let owner =
    Array.map
      (fun (inst : Concrete.instance) ->
        match accesses_of prog inst with
        | [] -> fallback.owner.(inst.seq)
        | accesses ->
            let votes = Array.make procs 0 in
            List.iter
              (fun ((r : Ir.array_ref), coords) ->
                let d = Layout.disk_of_element layout r.array coords in
                let p = Parallelize.proc_of_disk ~disks ~procs d in
                votes.(p) <- (votes.(p) + if r.array = anchor then 2 else 1))
              accesses;
            let best = Array.fold_left max 0 votes in
            let tied = List.filter (fun p -> votes.(p) = best) (List.init procs Fun.id) in
            let p = List.nth tied (!tie_break mod List.length tied) in
            incr tie_break;
            p)
      g.instances
  in
  { Parallelize.procs; owner }

let cost_reference prog (g : Concrete.graph) ~stripings =
  let layout = Layout.make ~overrides:stripings prog in
  let disks = layout.Layout.disk_count in
  let load = Array.make disks 0 and distinct = ref 0 and instances = ref 0 in
  Array.iter
    (fun inst ->
      match accesses_of prog inst with
      | [] -> ()
      | accesses ->
          incr instances;
          let touched = Array.make disks false in
          List.iter
            (fun ((r : Ir.array_ref), coords) ->
              let d = Layout.disk_of_element layout r.array coords in
              load.(d) <- load.(d) + 1;
              touched.(d) <- true)
            accesses;
          Array.iter (fun t -> if t then incr distinct) touched)
    g.instances;
  if !instances = 0 then 0.0
  else begin
    let avg_distinct = float_of_int !distinct /. float_of_int !instances in
    let mean = float_of_int (Array.fold_left ( + ) 0 load) /. float_of_int disks in
    let var =
      Array.fold_left
        (fun acc l ->
          let d = float_of_int l -. mean in
          acc +. (d *. d))
        0.0 load
      /. float_of_int disks
    in
    avg_distinct +. if mean > 0.0 then sqrt var /. mean else 0.0
  end

(* One request per access, each processor on its own clock, then a
   stable sort of the whole list in generation order: requests that tie
   on arrival, processor and address stay in program order. *)
let trace_reference ~cost layout prog (g : Concrete.graph) per_proc =
  let n_proc = Array.length per_proc in
  let requests = ref [] in
  let clocks = Array.make n_proc 0.0 and think = Array.make n_proc 0.0 in
  let last_pos = Array.make n_proc (-1, -1) in
  let run proc seg seq =
    let inst = g.instances.(seq) in
    let nest = nest_of prog inst.nest_id in
    List.iter
      (fun (s : Ir.stmt) ->
        let compute = Cost_model.compute_ms cost ~cycles:s.work_cycles in
        clocks.(proc) <- clocks.(proc) +. compute;
        think.(proc) <- think.(proc) +. compute;
        let env = Ir.env_of_iteration nest inst.iter in
        List.iter
          (fun (r : Ir.array_ref) ->
            let coords = List.map (Affine.eval env) r.subscripts in
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
                seg;
                address;
                lba;
                size;
                mode = r.mode;
                proc;
                disk;
              }
              :: !requests;
            think.(proc) <- 0.0;
            clocks.(proc) <-
              clocks.(proc) +. Cost_model.service_ms ~seek_distance cost ~bytes:size)
          s.refs)
      nest.body
  in
  for seg = 0 to List.length per_proc.(0) - 1 do
    for proc = 0 to n_proc - 1 do
      Array.iter (run proc seg) (List.nth per_proc.(proc) seg)
    done;
    let latest = Array.fold_left max 0.0 clocks in
    Array.fill clocks 0 n_proc latest;
    Array.fill think 0 n_proc 0.0
  done;
  List.stable_sort Request.compare_arrival (List.rev !requests)

(* --- the property --- *)

let zero_service =
  { Cost_model.default with seek_ms = 0.0; rotation_ms = 0.0; transfer_mb_s = infinity }

(* Requests of one processor that tie on arrival: what the zero-service
   model must produce for the tie path to be exercised at all. *)
let has_tie reqs =
  let rec go = function
    | (a : Request.t) :: (b :: _ as rest) ->
        (a.proc = b.proc && a.arrival_ms = b.arrival_ms) || go rest
    | _ -> false
  in
  go reqs

let ties = ref 0

let same what expected actual =
  if bytes expected <> bytes actual then
    QCheck.Test.fail_reportf "%s differs from its reference" what

let kernels_match token =
  let s = Scenario.generate token in
  let ctx = Scenario.context s in
  let prog = Pipeline.program ctx and layout = Pipeline.layout ctx in
  let g = Pipeline.graph ctx in
  same "graph" (graph_reference prog)
    ( Array.map (fun (i : Concrete.instance) -> (i.seq, i.nest_id, i.iter)) g.instances,
      g.preds,
      g.succs );
  let position id =
    Option.get (List.find_index (fun (n : Ir.nest) -> n.nest_id = id) prog.nests)
  in
  same "instance nest positions"
    (Array.map (fun (i : Concrete.instance) -> position i.nest_id) g.instances)
    (Array.map (fun (i : Concrete.instance) -> i.nest) g.instances);
  List.iter
    (fun policy ->
      same ("cluster table " ^ Cluster.policy_name policy)
        (table_reference policy layout prog g)
        (Cluster.build_table ~policy layout prog g))
    Cluster.all_policies;
  (* Scenario programs stay below the cost's 20,000-instance sample, so
     it reads every instance, as the reference does. *)
  same "layout cost"
    (cost_reference prog g ~stripings:s.stripes)
    (Layout_opt.cost prog g ~stripings:s.stripes);
  for procs = 1 to 4 do
    same
      (Printf.sprintf "conventional owners at %d" procs)
      (conventional_reference prog g ~procs)
      (Parallelize.conventional prog g ~procs);
    same
      (Printf.sprintf "layout-aware owners at %d" procs)
      (layout_aware_reference layout prog g ~procs)
      (Parallelize.layout_aware layout prog g ~procs);
    List.iter
      (fun mode ->
        if mode <> Pipeline.Reuse_multi || procs > 1 then begin
          let segs, _ = Pipeline.streams ctx ~procs mode in
          List.iter
            (fun (name, cost) ->
              let reference = trace_reference ~cost layout prog g segs in
              if has_tie reference then incr ties;
              same
                (Printf.sprintf "%s trace at %d, %s cost"
                   (Pipeline.mode_name mode) procs name)
                reference
                (Dp_trace.Trace.to_list (Generate.trace ~cost layout prog g.instances segs)))
            [ ("default", Cost_model.default); ("zero-service", zero_service) ]
        end)
      [ Pipeline.Original; Pipeline.Reuse_single; Pipeline.Reuse_multi ]
  done;
  true

let test_kernels =
  QCheck.Test.make ~count:100 ~name:"compiled kernels = name-resolving references"
    QCheck.int64 kernels_match

let test_ties_exercised () =
  ties := 0;
  List.iter (fun t -> ignore (kernels_match (Int64.of_int t))) [ 1; 2; 3 ];
  Alcotest.(check bool) "zero-service traces tie within a processor" true (!ties > 0)

let suites =
  [
    ( "kernel",
      [
        QCheck_alcotest.to_alcotest test_kernels;
        Alcotest.test_case "ties exercised" `Quick test_ties_exercised;
      ] );
  ]
