type t = { const : int; terms : (string * int) list }
(* [terms] sorted by variable name, no zero coefficients: canonical form. *)

let normalize terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, c) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (prev + c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0 then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let const c = { const = c; terms = [] }
let var v = { const = 0; terms = [ (v, 1) ] }
let term c v = { const = 0; terms = normalize [ (v, c) ] }
let of_terms ?(const = 0) terms = { const; terms = normalize terms }
let zero = const 0

let add a b = { const = a.const + b.const; terms = normalize (a.terms @ b.terms) }

let scale k a =
  if k = 0 then zero
  else { const = k * a.const; terms = List.map (fun (v, c) -> (v, k * c)) a.terms }

let neg a = scale (-1) a
let sub a b = add a (neg b)

let coeff a v = Option.value ~default:0 (List.assoc_opt v a.terms)
let constant a = a.const
let terms a = a.terms
let vars a = List.map fst a.terms
let is_const a = a.terms = []
let equal a b = a.const = b.const && a.terms = b.terms

let subst v e a =
  let c = coeff a v in
  if c = 0 then a
  else
    let without = { a with terms = List.remove_assoc v a.terms } in
    add without (scale c e)

let rename f a =
  { a with terms = normalize (List.map (fun (v, c) -> (f v, c)) a.terms) }

let eval env a =
  List.fold_left (fun acc (v, c) -> acc + (c * env v)) a.const a.terms

let eval_opt env a =
  List.fold_left
    (fun acc (v, c) ->
      match env v with
      | Some value -> { acc with const = acc.const + (c * value) }
      | None -> { acc with terms = (v, c) :: acc.terms })
    { const = a.const; terms = [] }
    a.terms
  |> fun r -> { r with terms = normalize r.terms }

let pp ppf a =
  let pp_term ~first ppf (v, c) =
    if c = 1 then Format.fprintf ppf "%s%s" (if first then "" else " + ") v
    else if c = -1 then Format.fprintf ppf "%s%s" (if first then "-" else " - ") v
    else if c > 0 then Format.fprintf ppf "%s%d*%s" (if first then "" else " + ") c v
    else Format.fprintf ppf "%s%d*%s" (if first then "" else " - ") (abs c) v
  in
  match a.terms with
  | [] -> Format.pp_print_int ppf a.const
  | t0 :: rest ->
      pp_term ~first:true ppf t0;
      List.iter (pp_term ~first:false ppf) rest;
      if a.const > 0 then Format.fprintf ppf " + %d" a.const
      else if a.const < 0 then Format.fprintf ppf " - %d" (abs a.const)

let to_string a = Format.asprintf "%a" pp a

let ( + ) = add
let ( - ) = sub
