(* Expected outputs: golden/outputs.txt lines "KIND KEY VALUE", where
   VALUE is an md5 (report, serve) or a chaos soak's engine-run count. *)

type t = (string * string * string) list

let parse text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | [ kind; key; value ] -> Some (kind, key, value)
        | _ -> failwith (Printf.sprintf "golden: malformed line %S" line))
    (String.split_on_char '\n' text)

let load path = parse (Proc.read_file path)

let find t kind key =
  List.find_map (fun (k, k', v) -> if k = kind && k' = key then Some v else None) t

(* The chaos soak seeds, in file order: each ran its 500 scenarios with
   zero findings when it was recorded. *)
let chaos_seeds t =
  List.filter_map
    (fun (k, key, _) -> if k = "chaos" then Some (int_of_string key) else None)
    t

(* Outputs without a golden value must agree with the first one seen in
   this process: reps with each other, the traced replica with the CLI. *)
let first_seen : (string * string, string) Hashtbl.t = Hashtbl.create 16

let matches t ~kind ~key value =
  match find t kind key with
  | Some expected -> expected = value
  | None -> (
      match Hashtbl.find_opt first_seen (kind, key) with
      | Some first -> first = value
      | None ->
          Hashtbl.add first_seen (kind, key) value;
          true)
