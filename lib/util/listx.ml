let group_by key xs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some acc -> Hashtbl.replace tbl k (x :: acc)
      | None ->
          Hashtbl.add tbl k [ x ];
          order := k :: !order)
    xs;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

let max_by measure = function
  | [] -> None
  | x :: xs ->
      let best, _ =
        List.fold_left
          (fun (bx, bm) y ->
            let m = measure y in
            if m > bm then (y, m) else (bx, bm))
          (x, measure x) xs
      in
      Some best

let sum_by measure xs = List.fold_left (fun acc x -> acc + measure x) 0 xs

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let rec drop n = function
  | xs when n <= 0 -> xs
  | [] -> []
  | _ :: xs -> drop (n - 1) xs

let range lo hi =
  let rec loop i acc = if i < lo then acc else loop (i - 1) (i :: acc) in
  loop hi []

let index_of p xs =
  let rec loop i = function
    | [] -> None
    | x :: rest -> if p x then Some i else loop (i + 1) rest
  in
  loop 0 xs

let uniq eq xs =
  let rec loop seen = function
    | [] -> List.rev seen
    | x :: rest ->
        if List.exists (eq x) seen then loop seen rest else loop (x :: seen) rest
  in
  loop [] xs
