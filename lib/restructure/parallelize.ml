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
let chunk_of_iteration (n : Ir.Compiled.nest) k ~procs iter =
  let lo = Ir.Compiled.eval n.lo.(k) iter and hi = Ir.Compiled.eval n.hi.(k) iter in
  let total = hi - lo + 1 in
  if total <= 0 then 0
  else clamp_proc procs ((iter.(k) - lo) * procs / total)

let conventional (prog : Ir.program) (g : Concrete.graph) ~procs =
  if procs < 1 then invalid_arg "Parallelize.conventional: procs must be >= 1";
  let code = Ir.Compiled.compile prog in
  let parallel_loop =
    Array.of_list (List.map Analysis.outermost_parallel_loop prog.nests)
  in
  let owner =
    Array.map
      (fun (inst : Concrete.instance) ->
        match parallel_loop.(inst.nest) with
        | Some loop -> chunk_of_iteration code.(inst.nest) loop ~procs inst.iter
        | None -> 0)
      g.instances
  in
  { procs; owner }

let nest_parts (prog : Ir.program) (g : Concrete.graph) a =
  let nests = List.length prog.nests in
  Array.mapi (fun seq p -> (p * nests) + g.instances.(seq).Concrete.nest) a.owner

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
  let anchor =
    match List.find_index (fun (a : Ir.array_decl) -> a.name = anchor) prog.arrays with
    | Some k -> k
    | None ->
        invalid_arg (Printf.sprintf "Parallelize.layout_aware: unknown anchor array %s" anchor)
  in
  let disks = layout.Layout.disk_count in
  let fallback = conventional prog g ~procs in
  let code = Ir.Compiled.compile prog in
  let entries = Array.of_list layout.Layout.entries in
  (* Plurality vote over the processors whose disk shares hold the
     iteration's accesses; anchor-array accesses count double (they
     define the affinity class).  Ties rotate over the tied processors so
     a tile spanning several shares does not starve any processor. *)
  let tie_break = ref 0 in
  let votes = Array.make procs 0 in
  let owner =
    Array.map
      (fun (inst : Concrete.instance) ->
        Array.fill votes 0 procs 0;
        let touched = ref false in
        Array.iter
          (fun (s : Ir.Compiled.stmt) ->
            Array.iter
              (fun (a : Ir.Compiled.access) ->
                let e = entries.(a.array) in
                let disk, _, _ = Layout.locate e (Layout.index e a inst.iter) in
                let p = proc_of_disk ~disks ~procs disk in
                votes.(p) <- votes.(p) + if a.array = anchor then 2 else 1;
                touched := true)
              s.accesses)
          code.(inst.nest).body;
        if not !touched then fallback.owner.(inst.seq)
        else begin
          let best = Array.fold_left max 0 votes in
          let tied = Array.fold_left (fun n v -> if v = best then n + 1 else n) 0 votes in
          (* The [!tie_break mod tied]-th tied processor, in id order. *)
          let rank = ref (!tie_break mod tied) and p = ref 0 in
          while votes.(!p) <> best || !rank > 0 do
            if votes.(!p) = best then decr rank;
            incr p
          done;
          incr tie_break;
          !p
        end)
      g.instances
  in
  { procs; owner }

let proc_counts a =
  let counts = Array.make a.procs 0 in
  Array.iter (fun p -> counts.(p) <- counts.(p) + 1) a.owner;
  counts
