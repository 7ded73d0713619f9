type action = Spin_down | Pre_spin_up of float | Set_rpm of int

type t = { at_ms : float; disk : int; action : action }

let compare_at a b =
  match Float.compare a.at_ms b.at_ms with 0 -> Int.compare a.disk b.disk | c -> c

let action_name = function
  | Spin_down -> "spin-down"
  | Pre_spin_up lead -> Printf.sprintf "pre-spin-up(%g ms)" lead
  | Set_rpm rpm -> Printf.sprintf "set-rpm(%d)" rpm

let pp ppf h =
  match h.action with
  | Spin_down -> Format.fprintf ppf "H %.3f %d D" h.at_ms h.disk
  | Pre_spin_up lead -> Format.fprintf ppf "H %.3f %d U %.3f" h.at_ms h.disk lead
  | Set_rpm rpm -> Format.fprintf ppf "H %.3f %d S %d" h.at_ms h.disk rpm

let is_hint_line line = String.length line >= 2 && line.[0] = 'H' && line.[1] = ' '

let parse_line_res line =
  let ( let* ) = Result.bind in
  let num name s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Ok f
    | Some _ -> Error (Printf.sprintf "bad hint %s %S (expected a finite number)" name s)
    | None -> Error (Printf.sprintf "bad hint %s %S (expected a number)" name s)
  in
  let int name s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "bad hint %s %S (expected an integer)" name s)
  in
  let id name s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "bad hint %s %S (expected a non-negative integer)" name s)
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ "H"; at; disk; "D" ] ->
      let* at_ms = num "time" at in
      let* disk = id "disk" disk in
      Ok { at_ms; disk; action = Spin_down }
  | [ "H"; at; disk; "U"; lead ] ->
      let* at_ms = num "time" at in
      let* disk = id "disk" disk in
      let* lead = num "lead" lead in
      Ok { at_ms; disk; action = Pre_spin_up lead }
  | [ "H"; at; disk; "S"; rpm ] ->
      let* at_ms = num "time" at in
      let* disk = id "disk" disk in
      let* rpm = int "rpm" rpm in
      Ok { at_ms; disk; action = Set_rpm rpm }
  | _ ->
      Error
        (Printf.sprintf "malformed hint %S (expected H t disk D | H t disk U lead | H t disk S rpm)"
           line)
