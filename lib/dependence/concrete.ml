module Ir = Dp_ir.Ir

type instance = { seq : int; nest : int; nest_id : int; iter : Dp_util.Ivec.t }

type graph = {
  instances : instance array;
  preds : int array array;
  succs : int array array;
}

(* Dense element keys: arrays get consecutive base offsets, an element's
   key is base + row-major linear index.  Subscripts may run out of the
   declared bounds (the IR does not forbid it); such accesses are hashed
   into the same space modulo the array size, which is conservative. *)
let element_key ~base ~extents (a : Ir.Compiled.access) iter =
  let dims = extents.(a.array) in
  let lin = ref 0 in
  for k = 0 to Array.length dims - 1 do
    let extent = dims.(k) in
    let c = Ir.Compiled.eval a.subscripts.(k) iter in
    lin := (!lin * extent) + (((c mod extent) + extent) mod extent)
  done;
  base.(a.array) + !lin

(* The one numbering of the instances: nests in program order,
   iterations in lexicographic order.  A bounded walk leaves by [Exit]
   as soon as the instances so far make [accesses] array accesses. *)
let instances ?(accesses = max_int) (prog : Ir.program) =
  let rev = ref [] and count = ref 0 and made = ref 0 in
  (try
     List.iteri
       (fun nest (n : Ir.nest) ->
         let per_iter =
           List.fold_left (fun acc (s : Ir.stmt) -> acc + List.length s.refs) 0 n.body
         in
         Ir.iter_nest n (fun iter ->
             if !made >= accesses then raise_notrace Exit;
             rev := { seq = !count; nest; nest_id = n.nest_id; iter } :: !rev;
             incr count;
             made := !made + per_iter))
       prog.nests
   with Exit -> ());
  Array.of_list (List.rev !rev)

let build (prog : Ir.program) =
  Dp_obs.Prof.span "dependence.concrete-build" @@ fun () ->
  (match Ir.validate prog with
  | Ok () -> ()
  | Error (e :: _) ->
      invalid_arg (Format.asprintf "Concrete.build: invalid program: %a" Ir.pp_error e)
  | Error [] -> ());
  let code = Ir.Compiled.compile prog in
  let arrays = Array.of_list prog.arrays in
  let extents = Array.map (fun (a : Ir.array_decl) -> Array.of_list a.dims) arrays in
  let base = Array.make (Array.length arrays) 0 in
  for k = 1 to Array.length arrays - 1 do
    base.(k) <- base.(k - 1) + Ir.array_elems arrays.(k - 1)
  done;
  let total = Array.fold_left (fun acc a -> acc + Ir.array_elems a) 0 arrays in
  let instances = instances prog in
  let n_inst = Array.length instances in
  (* Pass 1: count the writes per element, so reader lists are only
     kept while a future write can consume them. *)
  let writes_left = Array.make total 0 in
  Array.iter
    (fun inst ->
      let body = code.(inst.nest).body in
      for i = 0 to Array.length body - 1 do
        let accesses = body.(i).accesses in
        for j = 0 to Array.length accesses - 1 do
          let a = accesses.(j) in
          if a.mode = Ir.Write then begin
            let k = element_key ~base ~extents a inst.iter in
            writes_left.(k) <- writes_left.(k) + 1
          end
        done
      done)
    instances;
  (* Pass 2: scan accesses in order.  Every dependence of an instance
     ends at it, so its sources are complete once its own accesses are
     scanned: gather them once each ([mark]) in [srcs], then sort. *)
  let last_writer = Array.make total (-1) in
  let readers : int list array = Array.make total [] in
  let mark = Array.make n_inst (-1) in
  let srcs = ref (Array.make 8 0) and n_srcs = ref 0 in
  let add_edge seq src =
    if src >= 0 && src <> seq && mark.(src) <> seq then begin
      mark.(src) <- seq;
      if !n_srcs = Array.length !srcs then srcs := Array.append !srcs !srcs;
      !srcs.(!n_srcs) <- src;
      incr n_srcs
    end
  in
  let preds =
    Array.map
      (fun inst ->
        let seq = inst.seq and body = code.(inst.nest).body in
        n_srcs := 0;
        for i = 0 to Array.length body - 1 do
          let accesses = body.(i).accesses in
          for j = 0 to Array.length accesses - 1 do
            let a = accesses.(j) in
            let k = element_key ~base ~extents a inst.iter in
            add_edge seq last_writer.(k);
            match a.mode with
            | Ir.Read -> if writes_left.(k) > 0 then readers.(k) <- seq :: readers.(k)
            | Ir.Write ->
                List.iter (add_edge seq) readers.(k);
                readers.(k) <- [];
                last_writer.(k) <- seq;
                writes_left.(k) <- writes_left.(k) - 1
          done
        done;
        let ps = Array.sub !srcs 0 !n_srcs in
        Array.sort Int.compare ps;
        ps)
      instances
  in
  (* Successor lists by a counting pass: filled in increasing [dst]
     order, so each comes out sorted. *)
  let fill = Array.make n_inst 0 in
  Array.iter (Array.iter (fun src -> fill.(src) <- fill.(src) + 1)) preds;
  let succs = Array.map (fun k -> Array.make k 0) fill in
  Array.fill fill 0 n_inst 0;
  Array.iteri
    (fun dst ps ->
      Array.iter
        (fun src ->
          succs.(src).(fill.(src)) <- dst;
          fill.(src) <- fill.(src) + 1)
        ps)
    preds;
  { instances; preds; succs }

let instance_count g = Array.length g.instances
let edge_count g = Array.fold_left (fun acc p -> acc + Array.length p) 0 g.preds

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
