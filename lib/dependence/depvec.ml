type entry = Dist of int | Any
type t = entry list

let of_dists ds = List.map (fun d -> Dist d) ds
let equal = ( = )

let rec is_lex_positive = function
  | [] -> false
  | Dist 0 :: rest -> is_lex_positive rest
  | Dist d :: _ -> d > 0
  | Any :: _ -> false

let rec is_lex_negative = function
  | [] -> false
  | Dist 0 :: rest -> is_lex_negative rest
  | Dist d :: _ -> d < 0
  | Any :: _ -> false

let is_zero = List.for_all (function Dist 0 -> true | Dist _ | Any -> false)

let rec may_be_lex_negative = function
  | [] -> false
  | Dist 0 :: rest -> may_be_lex_negative rest
  | Dist d :: _ -> d < 0
  | Any :: _ -> true

let negate = List.map (function Dist d -> Dist (-d) | Any -> Any)

(* A vector whose sign is unknown starts with exact zeros followed by an
   [Any]; it stands for solutions in both directions.  Keeping the zero
   prefix and widening everything from the first [Any] on covers both
   orientations without losing the information carried by the prefix. *)
let normalize v =
  if is_zero v then None
  else if is_lex_positive v then Some v
  else if is_lex_negative v then Some (negate v)
  else
    let rec widen = function
      | [] -> []
      | Dist 0 :: rest -> Dist 0 :: widen rest
      | _ :: rest -> Any :: List.map (fun _ -> Any) rest
    in
    Some (widen v)

let loop_parallelizable vectors k =
  let ok v =
    match List.nth_opt v k with
    | None -> true (* vector shorter than depth: no constraint *)
    | Some (Dist 0) -> true
    | Some (Dist _ | Any) -> is_lex_positive (Dp_util.Listx.take k v)
  in
  List.for_all ok vectors

let outermost_parallel vectors ~depth =
  let rec loop k =
    if k >= depth then None
    else if loop_parallelizable vectors k then Some k
    else loop (k + 1)
  in
  loop 0

let pp ppf v =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf -> function
         | Dist d -> Format.pp_print_int ppf d
         | Any -> Format.pp_print_char ppf '*'))
    v
