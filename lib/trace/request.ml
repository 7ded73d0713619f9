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

let pp_load_error ppf e = Format.fprintf ppf "%s:%d: %s" e.file e.line e.msg
let load_error_to_string e = Format.asprintf "%a" pp_load_error e

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

(* Shared classifying parser over numbered lines; first error wins. *)
let of_numbered_lines lines =
  let ( let* ) = Result.bind in
  let* reqs, hints, faults =
    List.fold_left
      (fun acc (n, line) ->
        let* reqs, hints, faults = acc in
        let line = String.trim line in
        if line = "" || line.[0] = '#' then acc
        else if Hint.is_hint_line line then
          match Hint.parse_line_res line with
          | Ok h -> Ok (reqs, h :: hints, faults)
          | Error msg -> Error (n, msg)
        else if is_fault_line line then
          match Fault_model.of_spec (String.sub line 2 (String.length line - 2)) with
          | Ok f -> Ok (reqs, hints, Some f)
          | Error msg -> Error (n, msg)
        else
          match parse_line_res line with
          | Ok r -> Ok (r :: reqs, hints, faults)
          | Error msg -> Error (n, msg))
      (Ok ([], [], None))
      lines
  in
  Ok (List.rev reqs, List.rev hints, faults)

let number lines = List.mapi (fun i line -> (i + 1, line)) lines

let of_lines_res lines =
  match of_numbered_lines (number lines) with
  | Ok _ as ok -> ok
  | Error (n, msg) -> Error (Printf.sprintf "line %d: %s" n msg)

let load_result path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | line -> loop (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        of_numbered_lines (number (loop [])))
  with
  | Ok _ as ok -> ok
  | Error (line, msg) -> Error { file = path; line; msg }
  | exception Sys_error msg -> Error { file = path; line = 0; msg }
