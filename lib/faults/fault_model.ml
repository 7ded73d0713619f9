type class_ = Spin_up_failure | Media_error | Latency_spike | Stuck_rpm | Media_decay

let all_classes = [ Spin_up_failure; Media_error; Latency_spike; Stuck_rpm; Media_decay ]

let class_name = function
  | Spin_up_failure -> "spin-up"
  | Media_error -> "media"
  | Latency_spike -> "spike"
  | Stuck_rpm -> "stuck-rpm"
  | Media_decay -> "media-decay"

let class_letter = function
  | Spin_up_failure -> 's'
  | Media_error -> 'm'
  | Latency_spike -> 'l'
  | Stuck_rpm -> 'r'
  | Media_decay -> 'd'

type t = {
  seed : int;
  rate : float;
  classes : class_ list;
  spike_ms : float;
  stuck_window_ms : float;
}

(* NaN fails both comparisons. *)
let check_rate rate =
  if rate >= 0.0 && rate <= 1.0 then Ok ()
  else Error (Printf.sprintf "bad fault rate %g (expected within [0, 1])" rate)

let make ?(classes = all_classes) ?(spike_ms = 120.0) ?(stuck_window_ms = 30_000.0) ~seed
    ~rate () =
  (match check_rate rate with Ok () -> () | Error msg -> invalid_arg ("Fault_model.make: " ^ msg));
  { seed; rate; classes; spike_ms; stuck_window_ms }

let classes_of_string s =
  if s = "all" || s = "" then Ok all_classes
  else begin
    let rec go i acc =
      if i >= String.length s then Ok (List.rev acc)
      else
        match List.find_opt (fun c -> class_letter c = s.[i]) all_classes with
        | Some c ->
            if List.mem c acc then
              Error
                (Printf.sprintf "duplicate fault class %C in %S (each letter at most once)"
                   s.[i] s)
            else go (i + 1) (c :: acc)
        | None ->
            Error
              (Printf.sprintf
                 "bad fault class %C in %S (expected letters from \"smlrd\" or \"all\")"
                 s.[i] s)
    in
    go 0 []
  end

let of_spec spec =
  match String.split_on_char ':' (String.trim spec) with
  | [ seed; rate; classes ] -> begin
      match int_of_string_opt seed with
      | None -> Error (Printf.sprintf "bad fault seed %S (expected an integer)" seed)
      | Some s when s < 0 ->
          Error (Printf.sprintf "bad fault seed %S (expected a non-negative integer)" seed)
      | Some seed -> begin
          match float_of_string_opt rate with
          | None -> Error (Printf.sprintf "bad fault rate %S (expected a float)" rate)
          | Some rate ->
              Result.bind (check_rate rate) (fun () ->
                  Result.map (fun classes -> make ~classes ~seed ~rate ()) (classes_of_string classes))
        end
    end
  | _ -> Error (Printf.sprintf "bad fault spec %S (expected seed:rate:classes)" spec)

let to_spec t =
  let classes =
    if t.classes = all_classes then "all"
    else String.init (List.length t.classes) (fun i -> class_letter (List.nth t.classes i))
  in
  Printf.sprintf "%d:%g:%s" t.seed t.rate classes

let pp ppf t =
  Format.fprintf ppf "faults seed %d, rate %g, classes {%s}" t.seed t.rate
    (String.concat ", " (List.map class_name t.classes))
