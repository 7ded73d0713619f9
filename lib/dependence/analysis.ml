module Ir = Dp_ir.Ir
module Affine = Dp_affine.Affine
module Listx = Dp_util.Listx

type kind = Flow | Anti | Output

type dep = {
  array : string;
  src_stmt : int;
  dst_stmt : int;
  kind : kind;
  vector : Depvec.t;
}

let pp_kind ppf = function
  | Flow -> Format.pp_print_string ppf "flow"
  | Anti -> Format.pp_print_string ppf "anti"
  | Output -> Format.pp_print_string ppf "output"

let pp_dep ppf d =
  Format.fprintf ppf "%a S%d -> S%d on %s %a" pp_kind d.kind d.src_stmt d.dst_stmt
    d.array Depvec.pp d.vector

(* Coefficients of a subscript over the nest's indices, outermost first. *)
let coeff_row indices sub = List.map (Affine.coeff sub) indices

(* Constant loop bounds, when available, for the Banerjee refinement. *)
let const_bounds (n : Ir.nest) =
  List.map
    (fun (l : Ir.loop) ->
      if Affine.is_const l.lo && Affine.is_const l.hi then
        Some (Affine.constant l.lo, Affine.constant l.hi)
      else None)
    n.loops

let kind_of_modes src_mode dst_mode =
  match (src_mode, dst_mode) with
  | Ir.Write, Ir.Read -> Flow
  | Ir.Read, Ir.Write -> Anti
  | Ir.Write, Ir.Write -> Output
  | Ir.Read, Ir.Read -> assert false (* input deps are never enumerated *)

(* Distance vector for an ordered, uniformly generated pair: solve
   A d = c1 - c2 where d = sink_iteration - source_iteration. *)
let uniform_vector indices (r1 : Ir.array_ref) (r2 : Ir.array_ref) =
  let rows =
    List.map (fun s -> Array.of_list (coeff_row indices s)) r1.subscripts
    |> Array.of_list
  in
  let rhs =
    List.map2
      (fun s1 s2 -> Affine.constant s1 - Affine.constant s2)
      r1.subscripts r2.subscripts
    |> Array.of_list
  in
  match Linear_solve.solve ~rows ~rhs with
  | Linear_solve.No_solution -> None
  | Linear_solve.Classified entries -> Some entries

(* Entry-wise refinement: an exact distance larger than a loop's constant
   trip span is impossible. *)
let within_trip_spans bounds vector =
  List.for_all2
    (fun b e ->
      match (b, e) with
      | Some (lo, hi), Depvec.Dist d -> abs d <= hi - lo
      | _, (Depvec.Dist _ | Depvec.Any) -> true)
    bounds vector

(* Fallback existence test for a non-uniform pair: one equation per array
   dimension, over the 2n unknowns (source iteration, sink iteration). *)
let nonuniform_may_depend indices bounds (r1 : Ir.array_ref) (r2 : Ir.array_ref) =
  let box =
    if List.for_all Option.is_some bounds then
      let b = List.map Option.get bounds in
      Some (b @ b)
    else None
  in
  List.for_all2
    (fun s1 s2 ->
      let coeffs = coeff_row indices s1 @ List.map (fun c -> -c) (coeff_row indices s2) in
      let rhs = Affine.constant s2 - Affine.constant s1 in
      Dep_tests.may_depend ~bounds:box ~coeffs ~rhs ())
    r1.subscripts r2.subscripts

let uniformly_generated (r1 : Ir.array_ref) (r2 : Ir.array_ref) indices =
  List.for_all2
    (fun s1 s2 -> coeff_row indices s1 = coeff_row indices s2)
    r1.subscripts r2.subscripts

let nest_dependences (n : Ir.nest) =
  let indices = Ir.nest_indices n in
  let depth = List.length indices in
  let bounds = const_bounds n in
  let refs =
    List.concat_map (fun (s : Ir.stmt) -> List.map (fun r -> (s.stmt_id, r)) s.refs) n.body
  in
  let deps = ref [] in
  List.iter
    (fun (id1, (r1 : Ir.array_ref)) ->
      List.iter
        (fun (id2, (r2 : Ir.array_ref)) ->
          if
            r1.array = r2.array
            && (r1.mode = Ir.Write || r2.mode = Ir.Write)
            && List.length r1.subscripts = List.length r2.subscripts
          then begin
            let raw =
              if uniformly_generated r1 r2 indices then uniform_vector indices r1 r2
              else if nonuniform_may_depend indices bounds r1 r2 then
                Some (List.init depth (fun _ -> Depvec.Any))
              else None
            in
            match raw with
            | None -> ()
            | Some v when not (within_trip_spans bounds v) -> ()
            | Some v -> (
                match Depvec.normalize v with
                | None -> ()
                | Some vector ->
                    (* If normalization flipped the orientation, swap the
                       source and sink roles. *)
                    let flipped =
                      Depvec.is_lex_negative v && Depvec.is_lex_positive vector
                    in
                    let src_stmt, dst_stmt, src_mode, dst_mode =
                      if flipped then (id2, id1, r2.mode, r1.mode)
                      else (id1, id2, r1.mode, r2.mode)
                    in
                    deps :=
                      {
                        array = r1.array;
                        src_stmt;
                        dst_stmt;
                        kind = kind_of_modes src_mode dst_mode;
                        vector;
                      }
                      :: !deps)
          end)
        refs)
    refs;
  Listx.uniq ( = ) (List.rev !deps)

let distance_vectors n =
  Listx.uniq Depvec.equal (List.map (fun d -> d.vector) (nest_dependences n))

let outermost_parallel_loop n =
  Depvec.outermost_parallel (distance_vectors n) ~depth:(Ir.nest_depth n)
