module Ir = Dp_ir.Ir

type instance = { seq : int; nest_id : int; iter : Dp_util.Ivec.t }

type graph = {
  instances : instance array;
  preds : int array array;
  succs : int array array;
}

(* Dense element keys: arrays get consecutive base offsets, an element's
   key is base + row-major linear index.  Subscripts may run out of the
   declared bounds (the IR does not forbid it); such accesses are hashed
   into the same space modulo the array size, which is conservative. *)
type elem_space = {
  base_of_array : (string, int * int array) Hashtbl.t;
      (* name -> (base offset, dimension extents) *)
  total : int;
}

let make_elem_space (prog : Ir.program) =
  let base_of_array = Hashtbl.create 8 in
  let next = ref 0 in
  List.iter
    (fun (a : Ir.array_decl) ->
      Hashtbl.add base_of_array a.name (!next, Array.of_list a.dims);
      next := !next + Ir.array_elems a)
    prog.arrays;
  { base_of_array; total = !next }

let elem_key space array coords =
  let base, dims = Hashtbl.find space.base_of_array array in
  let n = Array.length dims in
  let lin = ref 0 in
  List.iteri
    (fun k c ->
      if k < n then begin
        let extent = dims.(k) in
        let c = ((c mod extent) + extent) mod extent in
        lin := (!lin * extent) + c
      end)
    coords;
  base + !lin

let build (prog : Ir.program) =
  Dp_obs.Prof.span "dependence.concrete-build" @@ fun () ->
  (match Ir.validate prog with
  | Ok () -> ()
  | Error (e :: _) ->
      invalid_arg (Format.asprintf "Concrete.build: invalid program: %a" Ir.pp_error e)
  | Error [] -> ());
  let space = make_elem_space prog in
  (* Pass 1: enumerate instances and count remaining writes per element,
     so reader lists are only kept while a future write can consume them. *)
  let instances = ref [] in
  let count = ref 0 in
  let writes_left = Array.make space.total 0 in
  List.iter
    (fun (n : Ir.nest) ->
      Ir.iter_nest n (fun iter ->
          let seq = !count in
          incr count;
          instances := { seq; nest_id = n.nest_id; iter } :: !instances;
          List.iter
            (fun ((r : Ir.array_ref), coords) ->
              if r.mode = Ir.Write then
                let k = elem_key space r.array coords in
                writes_left.(k) <- writes_left.(k) + 1)
            (Ir.element_accesses n iter)))
    prog.nests;
  let n_inst = !count in
  let instances = Array.of_list (List.rev !instances) in
  (* Pass 2: scan accesses in order, recording edges. *)
  let last_writer = Array.make space.total (-1) in
  let readers : int list array = Array.make space.total [] in
  let pred_lists : int list array = Array.make n_inst [] in
  let add_edge src dst =
    if src >= 0 && src <> dst then pred_lists.(dst) <- src :: pred_lists.(dst)
  in
  let next_seq = ref 0 in
  List.iter
    (fun (n : Ir.nest) ->
      Ir.iter_nest n (fun iter ->
          let seq = !next_seq in
          incr next_seq;
          assert (Dp_util.Ivec.equal instances.(seq).iter iter);
          List.iter
            (fun ((r : Ir.array_ref), coords) ->
              let k = elem_key space r.array coords in
              match r.mode with
              | Ir.Read ->
                  add_edge last_writer.(k) seq;
                  if writes_left.(k) > 0 then readers.(k) <- seq :: readers.(k)
              | Ir.Write ->
                  add_edge last_writer.(k) seq;
                  List.iter (fun rd -> add_edge rd seq) readers.(k);
                  readers.(k) <- [];
                  last_writer.(k) <- seq;
                  writes_left.(k) <- writes_left.(k) - 1)
            (Ir.element_accesses n iter)))
    prog.nests;
  let preds =
    Array.map
      (fun l -> Array.of_list (List.sort_uniq compare l))
      pred_lists
  in
  let succ_lists : int list array = Array.make n_inst [] in
  Array.iteri
    (fun dst ps -> Array.iter (fun src -> succ_lists.(src) <- dst :: succ_lists.(src)) ps)
    preds;
  let succs = Array.map (fun l -> Array.of_list (List.sort compare l)) succ_lists in
  { instances; preds; succs }

let instance_count g = Array.length g.instances
let edge_count g = Array.fold_left (fun acc p -> acc + Array.length p) 0 g.preds

let nest_positions (prog : Ir.program) g =
  let pos = Hashtbl.create 16 in
  List.iteri (fun k (n : Ir.nest) -> Hashtbl.replace pos n.nest_id k) prog.nests;
  Array.map
    (fun inst ->
      match Hashtbl.find_opt pos inst.nest_id with
      | Some k -> k
      | None ->
          invalid_arg
            (Printf.sprintf "Concrete.nest_positions: unknown nest id %d" inst.nest_id))
    g.instances

type order_error = Not_permutation of string | Inverted of { src : int; dst : int }

exception Bad_order of order_error

let check_parts g ~part orders =
  let n = Array.length g.instances in
  if Array.length part <> n then
    invalid_arg "Concrete.check_parts: part map does not match the graph";
  let not_permutation fmt =
    Printf.ksprintf (fun s -> raise_notrace (Bad_order (Not_permutation s))) fmt
  in
  let position = Array.make n (-1) in
  match
    Array.iteri
      (fun p order ->
        Array.iteri
          (fun pos seq ->
            if seq < 0 || seq >= n then
              not_permutation "order %d lists %d, outside [0, %d)" p seq n;
            if part.(seq) <> p then
              not_permutation "order %d lists instance %d of part %d" p seq part.(seq);
            if position.(seq) >= 0 then
              not_permutation "order %d lists instance %d twice" p seq;
            position.(seq) <- pos)
          order)
      orders;
    Array.iteri
      (fun seq p ->
        if p >= 0 && position.(seq) < 0 then
          not_permutation "instance %d of part %d is in no order" seq p)
      part;
    (* Every member is listed once, so [position] is its rank within its
       part's order; only edges inside one part constrain it. *)
    Array.iteri
      (fun dst ps ->
        Array.iter
          (fun src ->
            if part.(src) >= 0 && part.(src) = part.(dst) && position.(src) > position.(dst)
            then raise_notrace (Bad_order (Inverted { src; dst })))
          ps)
      g.preds
  with
  | () -> Ok ()
  | exception Bad_order e -> Error e

let is_legal_order ?(member = fun _ -> true) g order =
  let part =
    Array.init (Array.length g.instances) (fun seq -> if member seq then 0 else -1)
  in
  Result.is_ok (check_parts g ~part [| order |])

let original_order g = Array.init (Array.length g.instances) Fun.id
