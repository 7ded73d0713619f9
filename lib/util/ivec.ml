type t = int array

let zero n = Array.make n 0
let of_list = Array.of_list
let to_list = Array.to_list

let check_dim a b =
  if Array.length a <> Array.length b then
    invalid_arg "Ivec: dimension mismatch"

let add a b = check_dim a b; Array.mapi (fun i x -> x + b.(i)) a
let sub a b = check_dim a b; Array.mapi (fun i x -> x - b.(i)) a
let scale k = Array.map (fun x -> k * x)
let neg = Array.map (fun x -> -x)

let dot a b =
  check_dim a b;
  let s = ref 0 in
  Array.iteri (fun i x -> s := !s + (x * b.(i))) a;
  !s

let equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

let compare_lex a b =
  check_dim a b;
  let n = Array.length a in
  let rec loop i =
    if i >= n then 0
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let first_nonzero a =
  let n = Array.length a in
  let rec loop i = if i >= n then None else if a.(i) <> 0 then Some i else loop (i + 1) in
  loop 0

let is_lex_positive a =
  match first_nonzero a with Some i -> a.(i) > 0 | None -> false

let is_lex_negative a =
  match first_nonzero a with Some i -> a.(i) < 0 | None -> false

let is_zero a = first_nonzero a = None

let pp ppf a =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (Array.to_list a)

let to_string a = Format.asprintf "%a" pp a
