module Fault_model = Dp_faults.Fault_model
module Repair = Dp_repair.Repair

type t = {
  faults : Fault_model.t option;
  retry : Policy.retry_config;
  repair : Repair.config option;
  spare : int option;
  deadline_ms : float option;
}

let none =
  { faults = None; retry = Policy.default_retry; repair = None; spare = None; deadline_ms = None }

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let check_scrub ms =
  if Float.is_finite ms && ms >= 0.0 then Ok ()
  else fail "--scrub-ms must be finite and non-negative (got %g)" ms

let check t =
  let* () =
    match t.faults with
    | Some f -> Result.map_error (( ^ ) "--faults: ") (Fault_model.check_rate f.Fault_model.rate)
    | None -> Ok ()
  in
  let* () =
    match t.repair with Some r -> check_scrub r.Repair.scrub_budget_ms | None -> Ok ()
  in
  let* () =
    match t.spare with
    | Some n when n < 1 -> fail "--spare must be at least 1 block (got %d)" n
    | _ -> Ok ()
  in
  match t.deadline_ms with
  | Some d when not (Float.is_finite d && d > 0.0) ->
      fail "--deadline must be finite and positive (got %g)" d
  | _ -> Ok t

let make ?faults ?(scrub_ms = 0.0) ?spare ?deadline_ms () =
  let* () = check_scrub scrub_ms in
  let repair =
    if scrub_ms > 0.0 then Some (Repair.config ~scrub_budget_ms:scrub_ms ()) else None
  in
  check { none with faults; repair; spare; deadline_ms }

let armed_repair t =
  let decay =
    match t.faults with
    | Some f -> List.mem Fault_model.Media_decay f.Fault_model.classes
    | None -> false
  in
  match t.repair with
  | Some _ as r -> r
  | None when decay || t.deadline_ms <> None -> Some Repair.default
  | None -> None

let model t (m : Disk_model.t) =
  match t.spare with Some n -> { m with Disk_model.spare_blocks = n } | None -> m

let armed t =
  (match t.faults with Some f -> f.Fault_model.rate > 0.0 | None -> false)
  || t.repair <> None || t.spare <> None || t.deadline_ms <> None
