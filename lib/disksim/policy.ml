type tpm_config = { idle_threshold_s : float; proactive : bool }

type drpm_config = {
  window_size : int;
  downshift_idle_ms : float;
  tolerance : float;
  proactive : bool;
  min_rpm : int option;
}

type t =
  | No_pm
  | Tpm of tpm_config
  | Drpm of drpm_config
  | Adaptive of Dp_online.Online.config

(* NaN fails the comparison. *)
let non_negative who field v =
  if not (v >= 0.0) then
    invalid_arg (Printf.sprintf "Policy.%s: %s must be >= 0 (got %g)" who field v)

let tpm ?(idle_threshold_s = Disk_model.ultrastar_36z15.Disk_model.tpm_breakeven_s)
    ?(proactive = false) () =
  non_negative "tpm" "idle_threshold_s" idle_threshold_s;
  Tpm { idle_threshold_s; proactive }

let drpm ?(window_size = 100) ?(downshift_idle_ms = 1_000.0) ?(tolerance = 1.15)
    ?(proactive = false) ?min_rpm () =
  if window_size < 1 then
    invalid_arg (Printf.sprintf "Policy.drpm: window_size must be >= 1 (got %d)" window_size);
  non_negative "drpm" "downshift_idle_ms" downshift_idle_ms;
  Drpm { window_size; downshift_idle_ms; tolerance; proactive; min_rpm }

let adaptive ?(config = Dp_online.Online.default) () = Adaptive config
let default_tpm = tpm ()
let default_drpm = drpm ()
let default_adaptive = adaptive ()

let names = [ "none"; "tpm"; "tpm-proactive"; "drpm"; "drpm-proactive"; "online" ]

let of_name = function
  | "none" | "base" -> Some No_pm
  | "tpm" -> Some default_tpm
  | "tpm-proactive" -> Some (tpm ~proactive:true ())
  | "drpm" -> Some default_drpm
  | "drpm-proactive" -> Some (drpm ~proactive:true ())
  | "online" -> Some default_adaptive
  | _ -> None

let name = function
  | No_pm -> "none"
  | Tpm _ -> "TPM"
  | Drpm _ -> "DRPM"
  | Adaptive _ -> "Online"

let describe = function
  | No_pm -> "none (always at full speed)"
  | Adaptive c -> Dp_online.Online.describe c
  | Tpm c ->
      Printf.sprintf "TPM%s (idle threshold %.1f s)"
        (if c.proactive then " proactive" else "")
        c.idle_threshold_s
  | Drpm c ->
      Printf.sprintf "DRPM%s (window %d, downshift %.0f ms, tolerance %.2f%s)"
        (if c.proactive then " proactive" else "")
        c.window_size c.downshift_idle_ms c.tolerance
        (match c.min_rpm with Some r -> Printf.sprintf ", min rpm %d" r | None -> "")

type retry_config = { max_attempts : int; backoff_base_ms : float; backoff_cap_ms : float }

let default_retry = { max_attempts = 5; backoff_base_ms = 5.0; backoff_cap_ms = 80.0 }

let retry ?(max_attempts = default_retry.max_attempts)
    ?(backoff_base_ms = default_retry.backoff_base_ms)
    ?(backoff_cap_ms = default_retry.backoff_cap_ms) () =
  if max_attempts < 1 then invalid_arg "Policy.retry: max_attempts must be >= 1";
  { max_attempts; backoff_base_ms; backoff_cap_ms }

let backoff_ms rc ~attempt =
  if attempt <= 1 then Float.min rc.backoff_base_ms rc.backoff_cap_ms
  else
    Float.min rc.backoff_cap_ms
      (rc.backoff_base_ms *. Float.of_int (1 lsl min 30 (attempt - 1)))

let reactive_fallback = function
  | No_pm -> No_pm
  | Tpm c -> Tpm { c with proactive = false }
  | Drpm c -> Drpm { c with proactive = false }
  (* The online controller is already reactive: it only ever acts on
     observed arrivals, so it is its own fallback. *)
  | Adaptive _ as p -> p
