module Affine = Dp_affine.Affine
module Ivec = Dp_util.Ivec

type access_mode = Read | Write

type array_ref = {
  array : string;
  subscripts : Affine.t list;
  mode : access_mode;
}

type stmt = {
  stmt_id : int;
  refs : array_ref list;
  work_cycles : int;
  label : string option;
}

type loop = { index : string; lo : Affine.t; hi : Affine.t }
type nest = { nest_id : int; loops : loop list; body : stmt list }

type array_decl = {
  name : string;
  dims : int list;
  elem_size : int;
  file : string;
}

type program = { arrays : array_decl list; nests : nest list }

let array_decl ?(elem_size = 8) ?file name dims =
  let file = Option.value file ~default:(name ^ ".dat") in
  { name; dims; elem_size; file }

let read array subscripts = { array; subscripts; mode = Read }
let write array subscripts = { array; subscripts; mode = Write }
let stmt ?label ?(work_cycles = 1000) stmt_id refs = { stmt_id; refs; work_cycles; label }
let loop index lo hi = { index; lo; hi }
let nest nest_id loops body = { nest_id; loops; body }
let program arrays nests = { arrays; nests }

type error =
  | Unknown_array of { nest_id : int; array : string }
  | Arity_mismatch of { nest_id : int; array : string; expected : int; got : int }
  | Unbound_variable of { nest_id : int; var : string }
  | Duplicate_index of { nest_id : int; var : string }
  | Duplicate_array of string
  | Duplicate_nest_id of int
  | Empty_nest of int

let pp_error ppf = function
  | Unknown_array { nest_id; array } ->
      Format.fprintf ppf "nest %d: reference to undeclared array %s" nest_id array
  | Arity_mismatch { nest_id; array; expected; got } ->
      Format.fprintf ppf "nest %d: array %s has %d dimension(s) but is subscripted with %d"
        nest_id array expected got
  | Unbound_variable { nest_id; var } ->
      Format.fprintf ppf "nest %d: unbound variable %s" nest_id var
  | Duplicate_index { nest_id; var } ->
      Format.fprintf ppf "nest %d: duplicate loop index %s" nest_id var
  | Duplicate_array name -> Format.fprintf ppf "duplicate array declaration %s" name
  | Duplicate_nest_id id -> Format.fprintf ppf "duplicate nest id %d" id
  | Empty_nest id -> Format.fprintf ppf "nest %d has no loops" id

let find_array prog name = List.find_opt (fun a -> a.name = name) prog.arrays

let validate prog =
  let errs = ref [] in
  let err e = errs := e :: !errs in
  let seen_arrays = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen_arrays a.name then err (Duplicate_array a.name)
      else Hashtbl.add seen_arrays a.name ())
    prog.arrays;
  let seen_nests = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen_nests n.nest_id then err (Duplicate_nest_id n.nest_id)
      else Hashtbl.add seen_nests n.nest_id ();
      if n.loops = [] then err (Empty_nest n.nest_id);
      let indices = Hashtbl.create 8 in
      (* Loop bounds may use outer indices only; subscripts may use all. *)
      List.iter
        (fun l ->
          List.iter
            (fun v ->
              if not (Hashtbl.mem indices v) then
                err (Unbound_variable { nest_id = n.nest_id; var = v }))
            (Affine.vars l.lo @ Affine.vars l.hi);
          if Hashtbl.mem indices l.index then
            err (Duplicate_index { nest_id = n.nest_id; var = l.index })
          else Hashtbl.add indices l.index ())
        n.loops;
      List.iter
        (fun s ->
          List.iter
            (fun r ->
              (match find_array prog r.array with
              | None -> err (Unknown_array { nest_id = n.nest_id; array = r.array })
              | Some decl ->
                  let expected = List.length decl.dims
                  and got = List.length r.subscripts in
                  if expected <> got then
                    err
                      (Arity_mismatch { nest_id = n.nest_id; array = r.array; expected; got }));
              List.iter
                (fun sub ->
                  List.iter
                    (fun v ->
                      if not (Hashtbl.mem indices v) then
                        err (Unbound_variable { nest_id = n.nest_id; var = v }))
                    (Affine.vars sub))
                r.subscripts)
            s.refs)
        n.body)
    prog.nests;
  match List.rev !errs with [] -> Ok () | es -> Error es

let array_elems a = List.fold_left ( * ) 1 a.dims
let array_bytes a = array_elems a * a.elem_size
let total_bytes prog = List.fold_left (fun acc a -> acc + array_bytes a) 0 prog.arrays
let nest_depth n = List.length n.loops
let nest_indices n = List.map (fun l -> l.index) n.loops

let arrays_referenced n =
  let names = List.concat_map (fun s -> List.map (fun r -> r.array) s.refs) n.body in
  Dp_util.Listx.uniq String.equal names

(* Enumerate iteration vectors; bounds of inner loops may reference outer
   indices, so bounds are re-evaluated as the vector is extended. *)
let iter_nest n f =
  let depth = List.length n.loops in
  let current = Array.make depth 0 in
  let loops = Array.of_list n.loops in
  let env_upto k v =
    (* Environment over indices 0..k-1. *)
    let rec find i =
      if i >= k then raise Not_found
      else if loops.(i).index = v then current.(i)
      else find (i + 1)
    in
    find 0
  in
  let rec go k =
    if k = depth then f (Array.copy current)
    else begin
      let lo = Affine.eval (env_upto k) loops.(k).lo in
      let hi = Affine.eval (env_upto k) loops.(k).hi in
      for v = lo to hi do
        current.(k) <- v;
        go (k + 1)
      done
    end
  in
  go 0

let nest_iterations n =
  let acc = ref [] in
  iter_nest n (fun v -> acc := v :: !acc);
  List.rev !acc

let iteration_count n =
  let c = ref 0 in
  iter_nest n (fun _ -> incr c);
  !c

let env_of_iteration n iter =
  let loops = Array.of_list n.loops in
  fun v ->
    let rec find i =
      if i >= Array.length loops then raise Not_found
      else if loops.(i).index = v then iter.(i)
      else find (i + 1)
    in
    find 0

let element_accesses n iter =
  let env = env_of_iteration n iter in
  List.concat_map
    (fun s ->
      List.map (fun r -> (r, List.map (Affine.eval env) r.subscripts)) s.refs)
    n.body

let iteration_work n = Dp_util.Listx.sum_by (fun s -> s.work_cycles) n.body

module Compiled = struct
  type source_stmt = stmt
  type source_nest = nest
  type row = { coeffs : int array; const : int }
  type access = { mode : access_mode; array : int; subscripts : row array }
  type stmt = { work_cycles : int; accesses : access array }
  type nest = { lo : row array; hi : row array; body : stmt array }

  (* Coefficients over the nest's indices, outermost first; a variable
     that is not one of them has no column to land in. *)
  let row indices e =
    List.iter
      (fun v ->
        if not (Array.mem v indices) then
          invalid_arg (Printf.sprintf "Ir.Compiled.compile: unbound variable %s" v))
      (Affine.vars e);
    { coeffs = Array.map (Affine.coeff e) indices; const = Affine.constant e }

  let compile prog =
    let position = Hashtbl.create 8 in
    List.iteri (fun k (a : array_decl) -> Hashtbl.replace position a.name k) prog.arrays;
    let nest (n : source_nest) =
      let indices = Array.of_list (nest_indices n) in
      let access (r : array_ref) =
        match Hashtbl.find_opt position r.array with
        | Some array ->
            let subscripts = Array.of_list (List.map (row indices) r.subscripts) in
            { mode = r.mode; array; subscripts }
        | None -> invalid_arg ("Ir.Compiled.compile: undeclared array " ^ r.array)
      in
      let stmt (s : source_stmt) =
        { work_cycles = s.work_cycles; accesses = Array.of_list (List.map access s.refs) }
      in
      let loops = Array.of_list n.loops in
      {
        lo = Array.map (fun (l : loop) -> row indices l.lo) loops;
        hi = Array.map (fun (l : loop) -> row indices l.hi) loops;
        body = Array.of_list (List.map stmt n.body);
      }
    in
    Array.of_list (List.map nest prog.nests)

  let eval r (iter : Ivec.t) =
    let acc = ref r.const in
    for k = 0 to Array.length r.coeffs - 1 do
      acc := !acc + (r.coeffs.(k) * iter.(k))
    done;
    !acc
end

let pp_ref ppf r =
  Format.fprintf ppf "%s%a%s" r.array
    (fun ppf subs ->
      List.iter (fun s -> Format.fprintf ppf "[%a]" Affine.pp s) subs)
    r.subscripts
    (match r.mode with Read -> "" | Write -> " (w)")

let pp_stmt ppf s =
  Format.fprintf ppf "S%d:" s.stmt_id;
  (match s.label with Some l -> Format.fprintf ppf " (* %s *)" l | None -> ());
  List.iter (fun r -> Format.fprintf ppf " %a" pp_ref r) s.refs;
  Format.fprintf ppf " [%d cyc]" s.work_cycles

let pp_nest ppf n =
  Format.fprintf ppf "@[<v>nest %d:@," n.nest_id;
  List.iteri
    (fun depth l ->
      Format.fprintf ppf "%sfor %s = %a .. %a@,"
        (String.make (2 * depth) ' ')
        l.index Affine.pp l.lo Affine.pp l.hi)
    n.loops;
  let indent = String.make (2 * List.length n.loops) ' ' in
  List.iter (fun s -> Format.fprintf ppf "%s%a@," indent pp_stmt s) n.body;
  Format.fprintf ppf "@]"

let pp_program ppf p =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun a ->
      Format.fprintf ppf "array %s%s : %d-byte elems, file %s@," a.name
        (String.concat "" (List.map (fun d -> Printf.sprintf "[%d]" d) a.dims))
        a.elem_size a.file)
    p.arrays;
  List.iter (fun n -> Format.fprintf ppf "%a@," pp_nest n) p.nests;
  Format.fprintf ppf "@]"
