(* Quickstart: the whole pipeline in ~60 lines.

   Build a small out-of-core program, restructure it for disk reuse
   (Section 5 of the paper), and compare disk energy under TPM and DRPM
   with and without the restructuring — all through the staged
   {!Dp_pipeline.Pipeline}, the same stages `dpcc` and the harness use.

   Run with: dune exec examples/quickstart.exe *)

module Ir = Dp_ir.Ir
module A = Dp_affine.Affine
module Striping = Dp_layout.Striping
module Reuse = Dp_restructure.Reuse_scheduler
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Pipeline = Dp_pipeline.Pipeline

let () =
  (* 1. A program: two sweeps over a disk-resident matrix of 64 KB pages
     — one row-order, one column-order (the classic conflicting pair). *)
  let page = 64 * 1024 in
  let rows, cols = (64, 48) in
  let i = A.var "i" and j = A.var "j" and c = A.const in
  let program =
    Ir.program
      [ Ir.array_decl ~elem_size:page "m" [ rows; cols ] ]
      [
        Ir.nest 0
          [ Ir.loop "i" (c 0) (c (rows - 1)); Ir.loop "j" (c 0) (c (cols - 1)) ]
          [ Ir.stmt 0 ~work_cycles:2_000_000 [ Ir.read "m" [ i; j ] ] ];
        Ir.nest 1
          [ Ir.loop "j" (c 0) (c (cols - 1)); Ir.loop "i" (c 0) (c (rows - 1)) ]
          [ Ir.stmt 1 ~work_cycles:2_000_000 [ Ir.read "m" [ i; j ] ] ];
      ]
  in

  (* 2. A pipeline context over a disk layout: one row per stripe,
     round-robin over 8 I/O nodes (the paper's Table-1 system). *)
  let striping = Striping.make ~unit_bytes:(cols * page) ~factor:8 ~start_disk:0 in
  let ctx = Pipeline.create ~origin:"quickstart" ~default:striping program in

  (* 3. Restructure: cluster iterations disk by disk (Fig. 3).  The
     scheduler itself runs on the pipeline's shared dependence graph. *)
  let schedule = Reuse.schedule (Pipeline.cluster_table ctx) (Pipeline.graph ctx) in
  Format.printf "restructured in %d round(s); visits:" schedule.Reuse.rounds;
  List.iter (fun (d, n) -> Format.printf " d%d:%d" d n) schedule.Reuse.visits;
  Format.printf "@.";

  (* 4+5. Traces for the original and restructured orders are memoized
     stages; simulate each policy on its mode and report. *)
  let base = Pipeline.simulate ctx ~procs:1 ~policy:Policy.No_pm Pipeline.Original in
  let report name policy mode =
    let r = Pipeline.simulate ctx ~procs:1 ~policy mode in
    Format.printf "%-22s energy %8.1f J  (%.3f of base)  io %.1f s@." name
      r.Engine.energy_j
      (r.Engine.energy_j /. base.Engine.energy_j)
      (r.Engine.io_time_ms /. 1000.)
  in
  Format.printf "base (no PM)           energy %8.1f J  io %.1f s@." base.Engine.energy_j
    (base.Engine.io_time_ms /. 1000.);
  report "TPM on original" Policy.default_tpm Pipeline.Original;
  report "DRPM on original" Policy.default_drpm Pipeline.Original;
  report "TPM on restructured" (Policy.tpm ~proactive:true ()) Pipeline.Reuse_single;
  report "DRPM on restructured" Policy.default_drpm Pipeline.Reuse_single
