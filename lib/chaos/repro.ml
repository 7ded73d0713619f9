module Ir = Dp_ir.Ir
module Emit = Dp_lang.Emit
module Layout = Dp_layout.Layout
module Pipeline = Dp_pipeline.Pipeline
module Request = Dp_trace.Request
module Fsx = Dp_util.Fsx

let program_file = "scenario.dpl"
let spec_file = "scenario.spec"
let trace_file = "trace.txt"
let diff_file = "diff.txt"
let replay_file = "replay.cmd"

let replay_command ?sabotage ~dir () =
  Printf.sprintf "dpcc chaos --replay %s%s"
    (Filename.quote dir)
    (match sabotage with
    | Some sb -> " --sabotage " ^ Check.sabotage_name sb
    | None -> "")

let write ?sabotage ~dir (s : Scenario.t) (o : Check.outcome) =
  Fsx.mkdirs dir;
  let file name = Filename.concat dir name in
  let stripes =
    List.map (fun (name, st) -> (name, Emit.stripe_spec st)) s.Scenario.stripes
  in
  Fsx.atomic_write (file program_file) (Emit.to_string ~stripes s.Scenario.program);
  Fsx.atomic_write (file spec_file) (Scenario.to_spec s);
  Fsx.atomic_out (file trace_file) (fun oc ->
      Request.to_channel ?faults:s.Scenario.faults oc
        (Dp_trace.Trace.to_list (Check.run_trace s)));
  let diff =
    String.concat "\n"
      (Printf.sprintf "# %s" (Scenario.describe s)
      :: Printf.sprintf "# token %s, %d engine runs, %d requests" (Scenario.token_string s)
           o.Check.runs o.Check.requests
      :: List.map
           (fun (v : Check.violation) -> Printf.sprintf "%s: %s" v.Check.check v.Check.detail)
           o.Check.violations)
    ^ "\n"
  in
  Fsx.atomic_write (file diff_file) diff;
  Fsx.atomic_write (file replay_file) (replay_command ?sabotage ~dir () ^ "\n")

let load ~dir =
  let ( let* ) = Result.bind in
  let file name = Filename.concat dir name in
  let* ctx =
    match Pipeline.load (file program_file) with
    | ctx -> Ok ctx
    | exception (Failure msg | Sys_error msg) -> Error msg
  in
  let program = Pipeline.program ctx in
  let stripes =
    List.map
      (fun (e : Layout.entry) -> (e.Layout.decl.Ir.name, e.Layout.striping))
      (Pipeline.layout ctx).Layout.entries
  in
  let* spec =
    match Fsx.read_file (file spec_file) with
    | spec -> Ok spec
    | exception Sys_error msg -> Error msg
  in
  Scenario.of_spec ~program ~stripes spec
