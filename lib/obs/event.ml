type power_state = Active | Idle of int | Standby | Transition

type t =
  | Power of {
      disk : int;
      state : power_state;
      start_ms : float;
      stop_ms : float;
      charge_ms : float;
      energy_j : float;
    }
  | Service of {
      disk : int;
      proc : int;
      arrival_ms : float;
      start_ms : float;
      stop_ms : float;
      lba : int;
      bytes : int;
    }
  | Hint_exec of { disk : int; at_ms : float; action : string }
  | Fault of { disk : int; at_ms : float; kind : string; cost_ms : float }
  | Decision of { disk : int; at_ms : float; decision : string }
  | Repair of { disk : int; at_ms : float; op : string; blocks : int; cost_ms : float }
  | Deadline of {
      disk : int;
      proc : int;
      at_ms : float;
      response_ms : float;
      deadline_ms : float;
    }

let disk = function
  | Power { disk; _ } | Service { disk; _ } | Hint_exec { disk; _ } | Fault { disk; _ }
  | Decision { disk; _ } | Repair { disk; _ } | Deadline { disk; _ } ->
      disk

let time_ms = function
  | Power { start_ms; _ } | Service { start_ms; _ } -> start_ms
  | Hint_exec { at_ms; _ } | Fault { at_ms; _ } | Decision { at_ms; _ } | Repair { at_ms; _ }
  | Deadline { at_ms; _ } ->
      at_ms

let state_name = function
  | Active -> "active"
  | Idle _ -> "idle"
  | Standby -> "standby"
  | Transition -> "transition"

let track_name = function
  | Active -> "ACTIVE"
  | Idle rpm -> Printf.sprintf "IDLE@%d" rpm
  | Standby -> "STANDBY"
  | Transition -> "TRANSITION"

let to_json e : Dp_util.Json.t =
  let open Dp_util.Json in
  let head kind disk = [ ("type", String kind); ("disk", Int disk) ] in
  let instant kind disk at_ms rest = Obj (head kind disk @ (("at_ms", Float at_ms) :: rest)) in
  match e with
  | Power { disk; state; start_ms; stop_ms; charge_ms; energy_j } ->
      Obj
        (head "power" disk
        @ (("state", String (state_name state))
          :: (match state with Idle r -> [ ("rpm", Int r) ] | _ -> []))
        @ [ ("start_ms", Float start_ms); ("stop_ms", Float stop_ms);
            ("charge_ms", Float charge_ms); ("energy_j", Float energy_j) ])
  | Service { disk; proc; arrival_ms; start_ms; stop_ms; lba; bytes } ->
      Obj
        (head "service" disk
        @ [ ("proc", Int proc); ("arrival_ms", Float arrival_ms); ("start_ms", Float start_ms);
            ("stop_ms", Float stop_ms); ("response_ms", Float (stop_ms -. arrival_ms));
            ("lba", Int lba); ("bytes", Int bytes) ])
  | Hint_exec { disk; at_ms; action } -> instant "hint" disk at_ms [ ("action", String action) ]
  | Fault { disk; at_ms; kind; cost_ms } ->
      instant "fault" disk at_ms [ ("kind", String kind); ("cost_ms", Float cost_ms) ]
  | Decision { disk; at_ms; decision } ->
      instant "decision" disk at_ms [ ("decision", String decision) ]
  | Repair { disk; at_ms; op; blocks; cost_ms } ->
      instant "repair" disk at_ms
        [ ("op", String op); ("blocks", Int blocks); ("cost_ms", Float cost_ms) ]
  | Deadline { disk; proc; at_ms; response_ms; deadline_ms } ->
      Obj
        (head "deadline" disk
        @ [ ("proc", Int proc); ("at_ms", Float at_ms); ("response_ms", Float response_ms);
            ("deadline_ms", Float deadline_ms) ])

let pp ppf e = Format.pp_print_string ppf (Dp_util.Json.to_compact (to_json e))
