module Ir = Dp_ir.Ir
module Affine = Dp_affine.Affine
module Layout = Dp_layout.Layout
module Analysis = Dp_dependence.Analysis
module Concrete = Dp_dependence.Concrete
module Listx = Dp_util.Listx

type assignment = { procs : int; owner : int array }

let clamp_proc procs p = if p < 0 then 0 else if p >= procs then procs - 1 else p

(* Chunk of the block-partitioned loop [k] that iteration [iter] falls
   into; bounds may depend on outer indices (triangular nests). *)
let chunk_of_iteration (n : Ir.nest) k ~procs iter =
  let env = Ir.env_of_iteration n iter in
  let l = List.nth n.loops k in
  let lo = Affine.eval env l.Ir.lo and hi = Affine.eval env l.Ir.hi in
  let total = hi - lo + 1 in
  if total <= 0 then 0
  else clamp_proc procs ((iter.(k) - lo) * procs / total)

let conventional (prog : Ir.program) (g : Concrete.graph) ~procs =
  if procs < 1 then invalid_arg "Parallelize.conventional: procs must be >= 1";
  let nests = Array.of_list prog.nests in
  let parallel_loop = Array.map Analysis.outermost_parallel_loop nests in
  let pos = Concrete.nest_positions prog g in
  let owner =
    Array.map
      (fun (inst : Concrete.instance) ->
        let k = pos.(inst.seq) in
        match parallel_loop.(k) with
        | Some loop -> chunk_of_iteration nests.(k) loop ~procs inst.iter
        | None -> 0)
      g.instances
  in
  { procs; owner }

let nest_parts (prog : Ir.program) g a =
  let nests = List.length prog.nests in
  let pos = Concrete.nest_positions prog g in
  Array.mapi (fun seq p -> (p * nests) + pos.(seq)) a.owner

type distribution = Row_block | Col_block

let pp_distribution ppf = function
  | Row_block -> Format.pp_print_string ppf "row-block"
  | Col_block -> Format.pp_print_string ppf "column-block"

let demanded_distribution (n : Ir.nest) name =
  match Analysis.outermost_parallel_loop n with
  | None -> None
  | Some k -> (
      let indices = Ir.nest_indices n in
      let par_index = List.nth indices k in
      let refs =
        List.concat_map
          (fun (s : Ir.stmt) -> List.filter (fun (r : Ir.array_ref) -> r.array = name) s.refs)
          n.body
      in
      match refs with
      | [] -> None
      | r :: _ -> (
          match r.subscripts with
          | [] -> None
          | first :: rest ->
              if Affine.coeff first par_index <> 0 then Some Row_block
              else if
                List.exists (fun s -> Affine.coeff s par_index <> 0) rest
              then Some Col_block
              else None))

let unified_distribution (prog : Ir.program) name =
  let votes = List.filter_map (fun n -> demanded_distribution n name) prog.nests in
  let rows = List.length (List.filter (( = ) Row_block) votes) in
  let cols = List.length (List.filter (( = ) Col_block) votes) in
  if cols > rows then Col_block else Row_block

let default_anchor (prog : Ir.program) =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (n : Ir.nest) ->
      List.iter
        (fun (s : Ir.stmt) ->
          List.iter
            (fun (r : Ir.array_ref) ->
              let c = Option.value ~default:0 (Hashtbl.find_opt counts r.array) in
              Hashtbl.replace counts r.array (c + 1))
            s.refs)
        n.body)
    prog.nests;
  let best = ref None in
  List.iter
    (fun (a : Ir.array_decl) ->
      match Hashtbl.find_opt counts a.name with
      | Some c -> (
          match !best with
          | Some (_, bc) when bc >= c -> ()
          | _ -> best := Some (a.name, c))
      | None -> ())
    prog.arrays;
  match !best with
  | Some (name, _) -> name
  | None -> invalid_arg "Parallelize.layout_aware: program references no arrays"

let proc_of_disk ~disks ~procs d = clamp_proc procs (d * procs / disks)

let layout_aware ?anchor layout (prog : Ir.program) (g : Concrete.graph) ~procs =
  if procs < 1 then invalid_arg "Parallelize.layout_aware: procs must be >= 1";
  let anchor = match anchor with Some a -> a | None -> default_anchor prog in
  if Ir.find_array prog anchor = None then
    invalid_arg (Printf.sprintf "Parallelize.layout_aware: unknown anchor array %s" anchor);
  let disks = layout.Layout.disk_count in
  let fallback = conventional prog g ~procs in
  let owner = Array.make (Concrete.instance_count g) 0 in
  let nests = Array.of_list prog.nests in
  let pos = Concrete.nest_positions prog g in
  (* Plurality vote over the processors whose disk shares hold the
     iteration's accesses; anchor-array accesses count double (they
     define the affinity class).  Ties rotate over the tied processors so
     a tile spanning several shares does not starve any processor. *)
  let tie_break = ref 0 in
  Array.iter
    (fun (inst : Concrete.instance) ->
      let n = nests.(pos.(inst.seq)) in
      let accesses = Ir.element_accesses n inst.iter in
      if accesses = [] then owner.(inst.seq) <- fallback.owner.(inst.seq)
      else begin
        let votes = Array.make procs 0 in
        List.iter
          (fun ((r : Ir.array_ref), coords) ->
            let p = proc_of_disk ~disks ~procs (Layout.disk_of_element layout r.array coords) in
            votes.(p) <- votes.(p) + (if r.array = anchor then 2 else 1))
          accesses;
        let best = Array.fold_left max 0 votes in
        let tied = ref [] in
        Array.iteri (fun p v -> if v = best then tied := p :: !tied) votes;
        let tied = List.rev !tied in
        let p = List.nth tied (!tie_break mod List.length tied) in
        incr tie_break;
        owner.(inst.seq) <- p
      end)
    g.instances;
  { procs; owner }

let proc_counts a =
  let counts = Array.make a.procs 0 in
  Array.iter (fun p -> counts.(p) <- counts.(p) + 1) a.owner;
  counts
