module Ir = Dp_ir.Ir
module App = Dp_workloads.App
module Striping = Dp_layout.Striping
module Cluster = Dp_restructure.Cluster
module Pipeline = Dp_pipeline.Pipeline
module Policy = Dp_disksim.Policy
module Knobs = Dp_disksim.Knobs
module Fault_model = Dp_faults.Fault_model
module Splitmix = Dp_util.Splitmix

type t = {
  token : int64 option;
  program : Ir.program;
  stripes : (string * Striping.t) list;
  faults : Fault_model.t option;
  procs : int;
  mode : Pipeline.mode;
  cluster : Cluster.policy;
  policy : string;
  scrub_ms : float;
  spare : int option;
  deadline_ms : float option;
}

let policy t =
  match Policy.of_name t.policy with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Scenario.policy: unknown key %S" t.policy)

let make_knobs t =
  Knobs.make ?faults:t.faults ~scrub_ms:t.scrub_ms ?spare:t.spare ?deadline_ms:t.deadline_ms ()

let knobs t =
  match make_knobs t with Ok k -> k | Error msg -> invalid_arg ("Scenario.knobs: " ^ msg)

let token_string t =
  match t.token with Some tok -> Printf.sprintf "%016Lx" tok | None -> "-"

(* --- generation ---

   Everything is drawn from sub-streams split off one root, in a fixed
   order, so a token fully determines the scenario and shrinking one
   dimension never perturbs how another would regenerate. *)

let pick rng xs = List.nth xs (Splitmix.int rng ~bound:(List.length xs))

let gen_program rng =
  let k = App.counter () in
  let rows = 4 + Splitmix.int rng ~bound:7 in
  let cols = 3 + Splitmix.int rng ~bound:6 in
  let n_state = 2 + Splitmix.int rng ~bound:2 in
  let state = List.filteri (fun i _ -> i < n_state) [ "a"; "b"; "c" ] in
  let n_nests = 1 + Splitmix.int rng ~bound:4 in
  let arrays =
    List.map
      (fun name -> Ir.array_decl ~elem_size:App.page_bytes name [ rows; cols ])
      state
    @ [ Ir.array_decl ~elem_size:App.page_bytes "s" [ n_nests ] ]
  in
  let nests =
    List.init n_nests (fun slot ->
        let cycles = pick rng [ 600_000; 1_300_000; 2_600_000 ] in
        let src = pick rng state in
        match Splitmix.int rng ~bound:3 with
        | 0 -> App.sweep_nest k ~cycles ~src ~dst:(pick rng state) ~rows ~cols ()
        | 1 -> App.copy_nest k ~cycles ~src ~dst:(pick rng state) ~rows ~cols ()
        | _ -> App.reduction_nest k ~cycles ~src ~acc:"s" ~slot ~rows ~cols ())
  in
  Ir.program arrays nests

let gen_stripes rng (program : Ir.program) =
  List.map
    (fun (a : Ir.array_decl) ->
      let row_pages =
        match a.Ir.dims with [] -> 1 | _ :: rest -> List.fold_left ( * ) 1 rest
      in
      let factor = pick rng [ 4; 8 ] in
      let rows_per_stripe = 1 + Splitmix.int rng ~bound:2 in
      ( a.Ir.name,
        Striping.make
          ~unit_bytes:(rows_per_stripe * row_pages * a.Ir.elem_size)
          ~factor
          ~start_disk:(Splitmix.int rng ~bound:factor) ))
    program.Ir.arrays

let gen_faults rng =
  if not (Splitmix.bool rng ~p:0.75) then None
  else begin
    let classes =
      match List.filter (fun _ -> Splitmix.bool rng ~p:0.5) Fault_model.all_classes with
      | [] -> [ pick rng Fault_model.all_classes ]
      | cs -> cs
    in
    let seed = Splitmix.int rng ~bound:10_000 in
    let rate = pick rng [ 0.01; 0.05; 0.2; 0.5 ] in
    Some (Fault_model.make ~classes ~seed ~rate ())
  end

let generate token =
  let root = Splitmix.create (Int64.to_int token) in
  let prog_rng = Splitmix.split root in
  let layout_rng = Splitmix.split root in
  let fault_rng = Splitmix.split root in
  let knob_rng = Splitmix.split root in
  let program = gen_program prog_rng in
  let stripes = gen_stripes layout_rng program in
  let faults = gen_faults fault_rng in
  let procs = pick knob_rng [ 1; 2; 4 ] in
  let mode =
    if procs = 1 then pick knob_rng [ Pipeline.Original; Pipeline.Reuse_single ]
    else pick knob_rng [ Pipeline.Original; Pipeline.Reuse_single; Pipeline.Reuse_multi ]
  in
  let cluster = pick knob_rng Cluster.all_policies in
  let policy = pick knob_rng Policy.names in
  let scrub_ms = pick knob_rng [ 0.0; 0.0; 25.0 ] in
  let spare = pick knob_rng [ None; None; Some 32 ] in
  let deadline_ms = pick knob_rng [ None; None; Some 400.0 ] in
  {
    token = Some token;
    program;
    stripes;
    faults;
    procs;
    mode;
    cluster;
    policy;
    scrub_ms;
    spare;
    deadline_ms;
  }

(* --- the pipeline context of a scenario --- *)

let context ?cache t =
  Pipeline.create ?cache ~origin:"chaos" ~overrides:t.stripes t.program

(* --- spec (de)serialization ---

   The knob half of a scenario as a small key-value text file; the
   program half travels separately as emitted [.dpl] source (which
   carries the striping clauses).  Together the two files replay a
   scenario exactly — shrunk or not. *)

let cluster_of_name name =
  List.find_opt (fun p -> Cluster.policy_name p = name) Cluster.all_policies

let to_spec t =
  let opt_f = function Some v -> Printf.sprintf "%.17g" v | None -> "-" in
  let opt_i = function Some v -> string_of_int v | None -> "-" in
  String.concat "\n"
    [
      "chaos-scenario 1";
      "token " ^ token_string t;
      ("faults " ^ match t.faults with Some f -> Fault_model.to_spec f | None -> "-");
      Printf.sprintf "procs %d" t.procs;
      "mode " ^ Pipeline.mode_name t.mode;
      "cluster " ^ Cluster.policy_name t.cluster;
      "policy " ^ t.policy;
      Printf.sprintf "scrub-ms %.17g" t.scrub_ms;
      "spare " ^ opt_i t.spare;
      "deadline-ms " ^ opt_f t.deadline_ms;
      "";
    ]

let of_spec ~program ~stripes spec =
  let ( let* ) = Result.bind in
  let lines =
    List.filteri
      (fun _ l -> String.trim l <> "")
      (String.split_on_char '\n' spec)
  in
  let* fields =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        match String.index_opt line ' ' with
        | Some i ->
            let k = String.sub line 0 i in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            Ok ((k, String.trim v) :: acc)
        | None -> Error (Printf.sprintf "malformed spec line %S (expected KEY VALUE)" line))
      (Ok []) lines
  in
  let field k =
    match List.assoc_opt k fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "spec is missing the %S field" k)
  in
  let* version = field "chaos-scenario" in
  let* () =
    if version = "1" then Ok ()
    else Error (Printf.sprintf "unsupported chaos-scenario version %S" version)
  in
  let* token_s = field "token" in
  let* token =
    if token_s = "-" then Ok None
    else
      match Int64.of_string_opt ("0x" ^ token_s) with
      | Some tok -> Ok (Some tok)
      | None -> Error (Printf.sprintf "bad token %S (expected 16 hex digits)" token_s)
  in
  let* faults_s = field "faults" in
  let* faults =
    if faults_s = "-" then Ok None
    else Result.map Option.some (Fault_model.of_spec faults_s)
  in
  let* procs_s = field "procs" in
  let* procs =
    match int_of_string_opt procs_s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (Printf.sprintf "bad procs %S (expected a positive integer)" procs_s)
  in
  let* mode_s = field "mode" in
  let* mode =
    match Pipeline.mode_of_name mode_s with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "bad mode %S (expected original | single | multi)" mode_s)
  in
  let* cluster_s = field "cluster" in
  let* cluster =
    match cluster_of_name cluster_s with
    | Some c -> Ok c
    | None ->
        Error
          (Printf.sprintf "bad cluster %S (expected first-ref | min-disk | majority)"
             cluster_s)
  in
  let* policy_s = field "policy" in
  let* policy =
    if List.mem policy_s Policy.names then Ok policy_s
    else
      Error
        (Printf.sprintf "bad policy %S (expected %s)" policy_s
           (String.concat " | " Policy.names))
  in
  (* Parse errors are the spec's own; range checks are the knobs'. *)
  let number key conv v =
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad %s %S (expected a number)" key v)
  in
  let optional key conv =
    let* v = field key in
    if v = "-" then Ok None else Result.map Option.some (number key conv v)
  in
  let* scrub_ms = Result.bind (field "scrub-ms") (number "scrub-ms" float_of_string_opt) in
  let* spare = optional "spare" int_of_string_opt in
  let* deadline_ms = optional "deadline-ms" float_of_string_opt in
  let* () =
    if mode = Pipeline.Reuse_multi && procs = 1 then
      Error "mode multi needs procs > 1 (the layout-aware scheme tours disk shares)"
    else Ok ()
  in
  let t =
    {
      token;
      program;
      stripes;
      faults;
      procs;
      mode;
      cluster;
      policy;
      scrub_ms;
      spare;
      deadline_ms;
    }
  in
  Result.map (fun _ -> t) (make_knobs t)

(* --- shape accounting (what the shrinker minimizes) --- *)

let nest_count t = List.length t.program.Ir.nests
let fault_class_count t =
  match t.faults with None -> 0 | Some f -> List.length f.Fault_model.classes

let describe t =
  Format.asprintf "%d nest%s, %d array%s, %s faults, procs %d, mode %s, %s, policy %s%s%s%s"
    (nest_count t)
    (if nest_count t = 1 then "" else "s")
    (List.length t.program.Ir.arrays)
    (if List.length t.program.Ir.arrays = 1 then "" else "s")
    (match t.faults with Some f -> Fault_model.to_spec f | None -> "no")
    t.procs (Pipeline.mode_name t.mode)
    (Cluster.policy_name t.cluster)
    t.policy
    (if t.scrub_ms > 0.0 then Printf.sprintf ", scrub %g ms" t.scrub_ms else "")
    (match t.spare with Some n -> Printf.sprintf ", spare %d" n | None -> "")
    (match t.deadline_ms with Some d -> Printf.sprintf ", deadline %g ms" d | None -> "")
