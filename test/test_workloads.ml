(* Tests for the six Table-2 applications: structural validity and
   fidelity of the modeled request counts. *)

module App = Dp_workloads.App
module Workloads = Dp_workloads.Workloads
module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Generate = Dp_trace.Generate

let check = Alcotest.check

let all = Workloads.all ()

let test_registry () =
  check Alcotest.(list string) "six applications"
    [ "AST"; "FFT"; "Cholesky"; "Visuo"; "SCF 3.0"; "RSense 2.0" ]
    (Workloads.names ());
  check Alcotest.bool "lookup by name" true (Workloads.by_name "fft" <> None);
  check Alcotest.bool "unknown name" true (Workloads.by_name "nope" = None)

let test_programs_valid () =
  List.iter
    (fun (app : App.t) ->
      match Ir.validate app.App.program with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "%s invalid: %a" app.App.name
            (Format.pp_print_list Ir.pp_error)
            es)
    all

let test_overrides_cover_arrays () =
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun (a : Ir.array_decl) ->
          check Alcotest.bool
            (Printf.sprintf "%s/%s has striping" app.App.name a.Ir.name)
            true
            (List.mem_assoc a.Ir.name app.App.overrides))
        app.App.program.Ir.arrays)
    all

(* Request counts: within 6% of Table 2. *)
let request_count (app : App.t) =
  let g = Concrete.build app.App.program in
  let layout = Layout.make ~default:app.App.striping ~overrides:app.App.overrides app.App.program in
  let reqs =
    Generate.trace layout app.App.program g.Concrete.instances
      (Generate.single_stream ~order:(Concrete.original_order g))
  in
  List.length reqs

let test_request_counts () =
  List.iter
    (fun (app : App.t) ->
      let n = request_count app in
      let target = app.App.paper_requests in
      let err = abs (n - target) in
      check Alcotest.bool
        (Printf.sprintf "%s: %d requests vs paper %d (%.1f%% off)" app.App.name n target
           (100.0 *. float_of_int err /. float_of_int target))
        true
        (float_of_int err <= 0.06 *. float_of_int target))
    all

let test_io_fraction () =
  (* The paper: applications spend 75-82% of execution in disk I/O; our
     calibration targets that band loosely (70-92%). *)
  List.iter
    (fun (app : App.t) ->
      let g = Concrete.build app.App.program in
      let layout =
        Layout.make ~default:app.App.striping ~overrides:app.App.overrides app.App.program
      in
      let reqs =
        Generate.trace layout app.App.program g.Concrete.instances
          (Generate.single_stream ~order:(Concrete.original_order g))
      in
      let f = Generate.io_fraction (Generate.summarize reqs) in
      check Alcotest.bool
        (Printf.sprintf "%s io fraction %.2f in band" app.App.name f)
        true
        (f >= 0.70 && f <= 0.92))
    all

let test_structures () =
  let nests name = (Option.get (Workloads.by_name name)).App.program.Ir.nests in
  check Alcotest.int "FFT: 4 phases" 4 (List.length (nests "FFT"));
  check Alcotest.int "Visuo: 3 passes" 3 (List.length (nests "Visuo"));
  check Alcotest.int "RSense: 4 queries" 4 (List.length (nests "RSense 2.0"));
  check Alcotest.int "SCF: 2 iterations x 2 passes" 4 (List.length (nests "SCF 3.0"));
  (* Cholesky's panels are triangular: later panels shrink. *)
  let chol = nests "Cholesky" in
  let count n = Ir.iteration_count n in
  check Alcotest.bool "triangular shrink" true
    (count (List.nth chol 2) > count (List.nth chol (List.length chol - 1)));
  (* AST alternates the stencil direction between steps. *)
  let ast = nests "AST" in
  let first_arrays = Ir.arrays_referenced (List.hd ast) in
  let second_arrays = Ir.arrays_referenced (List.nth ast 1) in
  check Alcotest.bool "AST ping-pong" true (first_arrays <> second_arrays)

let test_page_size () =
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun (a : Ir.array_decl) ->
          check Alcotest.int
            (Printf.sprintf "%s/%s page" app.App.name a.Ir.name)
            App.page_bytes a.Ir.elem_size)
        app.App.program.Ir.arrays)
    all

let test_exported_dpl_in_sync () =
  (* The checked-in .dpl exports must match the built-in models: same
     access sequences, cycles and striping.  Guards against drift when a
     workload is retuned without re-running `dpcc emit`. *)
  let dir = "examples/programs" in
  let dir = if Sys.file_exists dir then dir else Filename.concat ".." dir in
  List.iter
    (fun (name, file) ->
      let path = Filename.concat dir file in
      if not (Sys.file_exists path) then
        Alcotest.failf "%s missing (regenerate with dpcc emit app:%s -o %s)" path name path;
      let app = Option.get (Workloads.by_name name) in
      let { Dp_lang.Resolver.program = loaded; stripes } =
        Dp_lang.Resolver.load_file path
      in
      let refs (p : Ir.program) =
        List.map
          (fun (n : Ir.nest) ->
            (n.Ir.loops, List.concat_map (fun (s : Ir.stmt) -> s.Ir.refs) n.Ir.body))
          p.Ir.nests
      in
      check Alcotest.bool
        (Printf.sprintf "%s: loops and accesses match" name)
        true
        (refs app.App.program = refs loaded);
      List.iter
        (fun (arr, (want : Dp_layout.Striping.t)) ->
          match List.assoc_opt arr stripes with
          | Some (got : Dp_lang.Ast.stripe_spec) ->
              check Alcotest.int (arr ^ " unit") want.Dp_layout.Striping.unit_bytes
                got.Dp_lang.Ast.unit_bytes;
              check Alcotest.int (arr ^ " start") want.Dp_layout.Striping.start_disk
                got.Dp_lang.Ast.start_disk
          | None -> Alcotest.failf "%s/%s: stripe clause missing" name arr)
        app.App.overrides)
    [
      ("AST", "ast.dpl"); ("FFT", "fft.dpl"); ("Cholesky", "cholesky.dpl");
      ("Visuo", "visuo.dpl"); ("SCF 3.0", "scf.dpl"); ("RSense 2.0", "rsense.dpl");
    ]

let test_pipeline_deterministic () =
  (* The whole pipeline is a pure function of the program: two runs give
     bit-identical energy. *)
  let app = Option.get (Workloads.by_name "FFT") in
  let run () =
    let layout =
      Layout.make ~default:app.App.striping ~overrides:app.App.overrides app.App.program
    in
    let g = Concrete.build app.App.program in
    let order =
      (Dp_restructure.Reuse_scheduler.schedule
         (Dp_restructure.Cluster.build_table layout app.App.program g)
         g)
        .Dp_restructure.Reuse_scheduler.order
    in
    let reqs =
      Generate.trace layout app.App.program g.Concrete.instances
        (Generate.single_stream ~order)
    in
    (Dp_disksim.Engine.simulate ~disks:8 Dp_disksim.Policy.default_drpm reqs)
      .Dp_disksim.Engine.energy_j
  in
  check (Alcotest.float 0.0) "identical energy" (run ()) (run ())

let suites =
  [
    ( "workloads",
      [
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "programs valid" `Quick test_programs_valid;
        Alcotest.test_case "overrides cover arrays" `Quick test_overrides_cover_arrays;
        Alcotest.test_case "page size" `Quick test_page_size;
        Alcotest.test_case "structures" `Quick test_structures;
        Alcotest.test_case "request counts near Table 2" `Slow test_request_counts;
        Alcotest.test_case "io fraction band" `Slow test_io_fraction;
        Alcotest.test_case "exported .dpl in sync" `Slow test_exported_dpl_in_sync;
        Alcotest.test_case "pipeline deterministic" `Slow test_pipeline_deterministic;
      ] );
  ]
