module Ir = Dp_ir.Ir
module Fault_model = Dp_faults.Fault_model

type t = {
  arrival_ms : float;
  think_ms : float;
  seg : int;
  address : int;
  lba : int;
  size : int;
  mode : Ir.access_mode;
  proc : int;
  disk : int;
}

type load_error = { file : string; line : int; msg : string }

let load_error_to_string e = Printf.sprintf "%s:%d: %s" e.file e.line e.msg

let compare_arrival a b =
  match Float.compare a.arrival_ms b.arrival_ms with
  | 0 -> (
      match Int.compare a.proc b.proc with
      | 0 -> Int.compare a.address b.address
      | c -> c)
  | c -> c

let rec in_arrival_order = function
  | a :: (b :: _ as rest) -> compare_arrival a b <= 0 && in_arrival_order rest
  | [ _ ] | [] -> true

(* A stable sort leaves a list already in order as it is, so skipping
   it changes nothing but the cost. *)
let sort_arrival reqs =
  if in_arrival_order reqs then reqs else List.stable_sort compare_arrival reqs

let mode_char = function Ir.Read -> 'R' | Ir.Write -> 'W'

let pp ppf r =
  Format.fprintf ppf "%.3f %.3f %d %d %d %d %c %d %d" r.arrival_ms r.think_ms r.seg
    r.address r.lba r.size (mode_char r.mode) r.proc r.disk

let is_fault_line line = String.length line >= 2 && line.[0] = 'F' && line.[1] = ' '

let to_channel ?(hints = []) ?faults oc reqs =
  output_string oc "# arrival_ms think_ms seg address lba size mode proc disk\n";
  List.iter (fun r -> output_string oc (Format.asprintf "%a\n" pp r)) reqs;
  if hints <> [] then begin
    output_string oc "# H at_ms disk D | H at_ms disk U lead_ms | H at_ms disk S rpm\n";
    List.iter
      (fun h -> output_string oc (Format.asprintf "%a\n" Hint.pp h))
      (List.sort Hint.compare_at hints)
  end;
  match faults with
  | None -> ()
  | Some f ->
      output_string oc "# F seed:rate:classes\n";
      output_string oc (Printf.sprintf "F %s\n" (Fault_model.to_spec f))

let save ?hints ?faults path reqs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> to_channel ?hints ?faults oc reqs)

let parse_line_res line =
  let ( let* ) = Result.bind in
  let num name s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Ok f
    | Some _ -> Error (Printf.sprintf "bad %s %S (expected a finite number)" name s)
    | None -> Error (Printf.sprintf "bad %s %S (expected a number)" name s)
  in
  let int name s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "bad %s %S (expected an integer)" name s)
  in
  let id name s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "bad %s %S (expected a non-negative integer)" name s)
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ t; think; seg; addr; lba; size; mode; proc; disk ] ->
      let* mode =
        match mode with
        | "R" -> Ok Ir.Read
        | "W" -> Ok Ir.Write
        | m -> Error (Printf.sprintf "bad mode %S (expected R or W)" m)
      in
      let* arrival_ms = num "arrival_ms" t in
      let* think_ms = num "think_ms" think in
      let* seg = id "seg" seg in
      let* address = int "address" addr in
      let* lba = int "lba" lba in
      let* size = int "size" size in
      let* proc = id "proc" proc in
      let* disk = id "disk" disk in
      Ok { arrival_ms; think_ms; seg; address; lba; size; mode; proc; disk }
  | fields ->
      Error
        (Printf.sprintf
           "malformed request line %S (expected 9 fields: arrival_ms think_ms seg address \
            lba size mode proc disk; got %d)"
           line (List.length fields))

(* One classifying pass over the lines; the first malformed one wins. *)
let of_string ~file s =
  let rec go n reqs hints faults = function
    | [] -> Ok (List.rev reqs, List.rev hints, faults)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (n + 1) reqs hints faults rest
        else if Hint.is_hint_line line then
          match Hint.parse_line_res line with
          | Ok h -> go (n + 1) reqs (h :: hints) faults rest
          | Error msg -> Error { file; line = n; msg }
        else if is_fault_line line then
          match Fault_model.of_spec (String.sub line 2 (String.length line - 2)) with
          | Ok f -> go (n + 1) reqs hints (Some f) rest
          | Error msg -> Error { file; line = n; msg }
        else
          match parse_line_res line with
          | Ok r -> go (n + 1) (r :: reqs) hints faults rest
          | Error msg -> Error { file; line = n; msg })
  in
  go 1 [] [] None (String.split_on_char '\n' s)
