module Ir = Dp_ir.Ir
module Striping = Dp_layout.Striping
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete

type result = {
  stripings : (string * Striping.t) list;
  cost : float;
  baseline_cost : float;
}

let cost ?(sample = 20_000) (prog : Ir.program) (g : Concrete.graph) ~stripings =
  if sample < 1 then invalid_arg "Layout_opt.cost: sample must be >= 1";
  let layout = Layout.make ~overrides:stripings prog in
  let disks = layout.Layout.disk_count in
  let code = Ir.Compiled.compile prog in
  let entries = Array.of_list layout.Layout.entries in
  let load = Array.make disks 0 and touched = Array.make disks false in
  let distinct_total = ref 0 and instances = ref 0 in
  (* Sampled instances: an even stride through the execution, so every
     nest contributes proportionally. *)
  let n = Concrete.instance_count g in
  let count, stride = if n <= sample then (n, 1) else (sample, n / sample) in
  for k = 0 to count - 1 do
    let inst = g.Concrete.instances.(k * stride) in
    let accesses = ref 0 in
    Array.iter
      (fun (s : Ir.Compiled.stmt) ->
        Array.iter
          (fun (a : Ir.Compiled.access) ->
            let e = entries.(a.array) in
            let d, _, _ = Layout.locate e (Layout.index e a inst.Concrete.iter) in
            load.(d) <- load.(d) + 1;
            touched.(d) <- true;
            incr accesses)
          s.accesses)
      code.(inst.Concrete.nest).body;
    if !accesses > 0 then begin
      incr instances;
      Array.iteri
        (fun d t ->
          if t then begin
            incr distinct_total;
            touched.(d) <- false
          end)
        touched
    end
  done;
  if !instances = 0 then 0.0
  else begin
    let avg_distinct = float_of_int !distinct_total /. float_of_int !instances in
    let total_load = Array.fold_left ( + ) 0 load in
    let mean = float_of_int total_load /. float_of_int disks in
    let var =
      Array.fold_left
        (fun acc l ->
          let d = float_of_int l -. mean in
          acc +. (d *. d))
        0.0 load
      /. float_of_int disks
    in
    let imbalance = if mean > 0.0 then sqrt var /. mean else 0.0 in
    avg_distinct +. imbalance
  end

let optimize ?(rows_options = [ 1; 2; 4 ]) ?(sample = 20_000) ?(sweeps = 2) ~factor
    ~initial (prog : Ir.program) (g : Concrete.graph) =
  Dp_obs.Prof.span "restructure.layout-unification" @@ fun () ->
  List.iter
    (fun (a : Ir.array_decl) ->
      if not (List.mem_assoc a.Ir.name initial) then
        invalid_arg
          (Printf.sprintf "Layout_opt.optimize: no initial striping for %s" a.Ir.name))
    prog.Ir.arrays;
  let row_bytes (a : Ir.array_decl) =
    let cols = match a.Ir.dims with [] -> 1 | _ :: rest -> List.fold_left ( * ) 1 rest in
    cols * a.Ir.elem_size
  in
  let current = ref initial in
  let baseline_cost = cost ~sample prog g ~stripings:!current in
  let best_cost = ref baseline_cost in
  for _sweep = 1 to sweeps do
    List.iter
      (fun (a : Ir.array_decl) ->
        let candidates =
          List.concat_map
            (fun rows ->
              List.map
                (fun start_disk ->
                  Striping.make ~unit_bytes:(rows * row_bytes a) ~factor ~start_disk)
                (Dp_util.Listx.range 0 (factor - 1)))
            rows_options
        in
        List.iter
          (fun striping ->
            let trial =
              (a.Ir.name, striping) :: List.remove_assoc a.Ir.name !current
            in
            let c = cost ~sample prog g ~stripings:trial in
            if c < !best_cost -. 1e-9 then begin
              best_cost := c;
              current := trial
            end)
          candidates)
      prog.Ir.arrays
  done;
  (* Keep the arrays' declaration order in the result. *)
  let stripings =
    List.map (fun (a : Ir.array_decl) -> (a.Ir.name, List.assoc a.Ir.name !current)) prog.Ir.arrays
  in
  { stripings; cost = !best_cost; baseline_cost }
