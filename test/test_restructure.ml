(* Tests for the paper's core algorithms: clustering, the Fig.-3
   disk-reuse scheduler (including the exact Fig.-4 walkthrough), the
   symbolic per-disk sets, and the two parallelization schemes. *)

module Ir = Dp_ir.Ir
module A = Dp_affine.Affine
module Striping = Dp_layout.Striping
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Cluster = Dp_restructure.Cluster
module Reuse = Dp_restructure.Reuse_scheduler
module Symbolic = Dp_restructure.Symbolic
module Parallelize = Dp_restructure.Parallelize
module Pipeline = Dp_pipeline.Pipeline
module Iset = Dp_polyhedra.Iset

let check = Alcotest.check
let c = A.const
let i = A.var "i"
let j = A.var "j"

(* ------------------------------------------------------------------ *)
(* Figure 4: 13 single-iteration nests over 4 disks with three
   cross-nest dependences (2->9, 6->7, 10->12 in the paper's 1-based
   labels).  Disk assignment of label k is fixed through the element of
   [a] its first reference touches. *)

let fig4_program =
  (* label -> (element of a (disk = elem mod 4), dep action) *)
  let spec =
    [
      (* label, elem, writes B slot, reads B slot *)
      (1, 0, None, None);
      (2, 1, Some 0, None);
      (3, 4, None, None);
      (4, 2, None, None);
      (5, 6, None, None);
      (6, 5, Some 1, None);
      (7, 8, None, Some 1);
      (8, 3, None, None);
      (9, 10, None, Some 0);
      (10, 9, Some 2, None);
      (11, 7, None, None);
      (12, 12, None, Some 2);
      (13, 11, None, None);
    ]
  in
  let nests =
    List.map
      (fun (label, elem, w, r) ->
        let refs =
          [ Ir.read "a" [ c elem ] ]
          @ (match w with Some k -> [ Ir.write "b" [ c k ] ] | None -> [])
          @ (match r with Some k -> [ Ir.read "b" [ c k ] ] | None -> [])
        in
        Ir.nest (label - 1) [ Ir.loop "i" (c 0) (c 0) ] [ Ir.stmt (label - 1) refs ])
      spec
  in
  Ir.program [ Ir.array_decl ~elem_size:64 "a" [ 16 ]; Ir.array_decl ~elem_size:64 "b" [ 4 ] ] nests

let fig4_layout =
  Layout.make ~default:(Striping.make ~unit_bytes:64 ~factor:4 ~start_disk:0) fig4_program

let test_fig4_walkthrough () =
  let g = Concrete.build fig4_program in
  check Alcotest.int "13 instances" 13 (Concrete.instance_count g);
  let s = Reuse.schedule (Cluster.build_table fig4_layout fig4_program g) g in
  (* Expected: round 1 visits d0 {1,3}, d1 {2,6,10}, d2 {4,5,9},
     d3 {8,11,13}; round 2 visits d0 {7,12}.  seq = label - 1. *)
  check
    Alcotest.(array int)
    "schedule order"
    [| 0; 2; 1; 5; 9; 3; 4; 8; 7; 10; 12; 6; 11 |]
    s.Reuse.order;
  check Alcotest.int "two while-loop rounds" 2 s.Reuse.rounds;
  check
    Alcotest.(list (pair int int))
    "visits" [ (0, 2); (1, 3); (2, 3); (3, 3); (0, 2) ] s.Reuse.visits;
  check Alcotest.bool "legal" true (Concrete.is_legal_order g s.Reuse.order)

(* ------------------------------------------------------------------ *)
(* Dependence-free program: perfect reuse, one round, one visit per
   disk (the ideal of Section 5). *)

let free_program =
  Ir.program
    [ Ir.array_decl ~elem_size:64 "u" [ 16; 4 ] ]
    [
      Ir.nest 0
        [ Ir.loop "i" (c 0) (c 15); Ir.loop "j" (c 0) (c 3) ]
        [ Ir.stmt 0 [ Ir.read "u" [ i; j ] ] ];
    ]

let free_layout =
  (* One row (4 elems x 64 B) per stripe over 4 disks. *)
  Layout.make ~default:(Striping.make ~unit_bytes:256 ~factor:4 ~start_disk:0) free_program

let test_perfect_reuse () =
  let g = Concrete.build free_program in
  let table = Cluster.build_table free_layout free_program g in
  let s = Reuse.schedule table g in
  check Alcotest.int "one round" 1 s.Reuse.rounds;
  check Alcotest.int "four visits" 4 (List.length s.Reuse.visits);
  check Alcotest.int "three switches for four disks" 3
    (Reuse.disk_switches table s.Reuse.order);
  (* Original row-major order alternates disks every row. *)
  let switches_before = Reuse.disk_switches table (Concrete.original_order g) in
  check Alcotest.int "original switches" 15 switches_before

let test_start_disk_rotation () =
  let g = Concrete.build free_program in
  let s = Reuse.schedule ~start_disk:2 (Cluster.build_table free_layout free_program g) g in
  (match s.Reuse.visits with
  | (first, _) :: _ -> check Alcotest.int "tour starts at disk 2" 2 first
  | [] -> Alcotest.fail "no visits");
  check Alcotest.bool "still legal" true (Concrete.is_legal_order g s.Reuse.order)

let test_subset_part () =
  let g = Concrete.build free_program in
  let table = Cluster.build_table free_layout free_program g in
  let member seq = seq mod 2 = 0 in
  (* Odd instances sit in no part: they are left unscheduled. *)
  let part =
    Array.init (Concrete.instance_count g) (fun seq -> if member seq then 0 else -1)
  in
  let s = (Reuse.schedule_parts table g ~part ~start_disks:[| 0 |]).(0) in
  check Alcotest.int "half the instances" 32 (Array.length s.Reuse.order);
  check Alcotest.bool "only members" true (Array.for_all member s.Reuse.order);
  let sorted = Array.copy s.Reuse.order in
  Array.sort compare sorted;
  check Alcotest.bool "each member once" true
    (Array.to_list sorted = List.init 32 (fun k -> 2 * k));
  check Alcotest.bool "legal on the members" true
    (Concrete.is_legal_order ~member g s.Reuse.order)

(* ------------------------------------------------------------------ *)
(* Clustering policies. *)

let multi_ref_program =
  (* Each iteration touches rows i (disk i mod 4) of u and w; w is
     staggered so the two disks differ. *)
  Ir.program
    [ Ir.array_decl ~elem_size:256 "u" [ 8; 1 ]; Ir.array_decl ~elem_size:256 "w" [ 8; 1 ] ]
    [
      Ir.nest 0
        [ Ir.loop "i" (c 0) (c 7) ]
        [ Ir.stmt 0 [ Ir.read "u" [ i; c 0 ]; Ir.write "w" [ i; c 0 ]; Ir.write "w" [ i; c 0 ] ] ];
    ]

let multi_layout =
  Layout.make
    ~default:(Striping.make ~unit_bytes:256 ~factor:4 ~start_disk:0)
    ~overrides:[ ("w", Striping.make ~unit_bytes:256 ~factor:4 ~start_disk:1) ]
    multi_ref_program

let test_cluster_policies () =
  let g = Concrete.build multi_ref_program in
  let t_first = Cluster.build_table ~policy:Cluster.First_ref multi_layout multi_ref_program g in
  let t_min = Cluster.build_table ~policy:Cluster.Min_disk multi_layout multi_ref_program g in
  let t_maj = Cluster.build_table ~policy:Cluster.Majority multi_layout multi_ref_program g in
  (* Iteration 3: u row 3 -> disk 3, w row 3 -> disk 0 (start 1: (3+1) mod 4). *)
  check Alcotest.int "first-ref key" 3 t_first.Cluster.key.(3);
  check Alcotest.int "min-disk key" 0 t_min.Cluster.key.(3);
  (* w is referenced twice, so majority picks w's disk. *)
  check Alcotest.int "majority key" 0 t_maj.Cluster.key.(3);
  check Alcotest.int "the tour covers the layout's disks" 4 t_first.Cluster.disks

(* ------------------------------------------------------------------ *)
(* Symbolic restructuring (Fig. 2 reproduction). *)

let test_symbolic_sets () =
  let g = Concrete.build free_program in
  let table = Cluster.build_table free_layout free_program g in
  (* Per-disk sets partition the iteration space and agree with the
     concrete clustering. *)
  let total = ref 0 in
  List.iter
    (fun disk ->
      let pts = Symbolic.scheduled_iterations free_layout free_program ~disk ~nest_id:0 in
      total := !total + List.length pts;
      List.iter
        (fun p ->
          (* Find the seq of this iteration: row-major position. *)
          let seq = (p.(0) * 4) + p.(1) in
          check Alcotest.int "symbolic matches concrete key" disk table.Cluster.key.(seq))
        pts)
    [ 0; 1; 2; 3 ];
  check Alcotest.int "sets cover the nest" 64 !total

let test_symbolic_restructure_shape () =
  let ds = Symbolic.restructure free_layout free_program in
  check Alcotest.int "one schedule per disk" 4 (List.length ds);
  List.iteri
    (fun d (sched : Symbolic.disk_schedule) ->
      check Alcotest.int "disk in order" d sched.Symbolic.disk;
      check Alcotest.int "one piece (one nest)" 1 (List.length sched.Symbolic.pieces))
    ds

let test_symbolic_unsupported () =
  (* A self-dependence makes the symbolic path refuse. *)
  let dep_prog =
    Ir.program
      [ Ir.array_decl ~elem_size:64 "u" [ 16 ] ]
      [
        Ir.nest 0
          [ Ir.loop "i" (c 1) (c 15) ]
          [ Ir.stmt 0 [ Ir.read "u" [ A.sub i (c 1) ]; Ir.write "u" [ i ] ] ];
      ]
  in
  let layout =
    Layout.make ~default:(Striping.make ~unit_bytes:64 ~factor:4 ~start_disk:0) dep_prog
  in
  match Symbolic.restructure layout dep_prog with
  | exception Symbolic.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported on dependences"

(* ------------------------------------------------------------------ *)
(* Parallelization. *)

let transpose_program =
  Ir.program
    [ Ir.array_decl ~elem_size:64 "u" [ 8; 8 ]; Ir.array_decl ~elem_size:64 "w" [ 8; 8 ] ]
    [
      (* Row access: parallel loop i hits the first subscript. *)
      Ir.nest 0
        [ Ir.loop "i" (c 0) (c 7); Ir.loop "j" (c 0) (c 7) ]
        [ Ir.stmt 0 [ Ir.read "u" [ i; j ]; Ir.write "w" [ i; j ] ] ];
      (* Transposed access to u: parallel loop i hits the second
         subscript -> column-block demand. *)
      Ir.nest 1
        [ Ir.loop "i" (c 0) (c 7); Ir.loop "j" (c 0) (c 7) ]
        [ Ir.stmt 1 [ Ir.read "u" [ j; i ] ] ];
      Ir.nest 2
        [ Ir.loop "i" (c 0) (c 7); Ir.loop "j" (c 0) (c 7) ]
        [ Ir.stmt 2 [ Ir.read "u" [ i; j ] ] ];
    ]

let transpose_layout =
  Layout.make
    ~default:(Striping.make ~unit_bytes:(8 * 64) ~factor:4 ~start_disk:0)
    transpose_program

let test_conventional () =
  let g = Concrete.build transpose_program in
  let a = Parallelize.conventional transpose_program g ~procs:4 in
  check Alcotest.int "procs" 4 a.Parallelize.procs;
  let counts = Parallelize.proc_counts a in
  Array.iter (fun n -> check Alcotest.int "balanced" 48 n) counts;
  (* Nest 0 iteration (5, j) belongs to chunk 5*4/8 = 2. *)
  check Alcotest.int "chunk of row 5" 2 a.Parallelize.owner.(5 * 8)

let test_distributions () =
  check
    Alcotest.(option (testable Parallelize.pp_distribution ( = )))
    "nest 0 demands row-block" (Some Parallelize.Row_block)
    (Parallelize.demanded_distribution (List.hd transpose_program.Ir.nests) "u");
  check
    Alcotest.(option (testable Parallelize.pp_distribution ( = )))
    "nest 1 demands col-block" (Some Parallelize.Col_block)
    (Parallelize.demanded_distribution (List.nth transpose_program.Ir.nests 1) "u");
  check
    (Alcotest.testable Parallelize.pp_distribution ( = ))
    "majority vote: row-block" Parallelize.Row_block
    (Parallelize.unified_distribution transpose_program "u")

(* Localization metric: fraction of element accesses landing on the
   owner's disk share. *)
let localization layout prog g (a : Parallelize.assignment) =
  let disks = layout.Layout.disk_count in
  let hits = ref 0 and total = ref 0 in
  Array.iter
    (fun (inst : Concrete.instance) ->
      let nest = List.find (fun (n : Ir.nest) -> n.Ir.nest_id = inst.Concrete.nest_id) prog.Ir.nests in
      List.iter
        (fun ((r : Ir.array_ref), coords) ->
          incr total;
          let d = Layout.disk_of_element layout r.Ir.array coords in
          if Parallelize.proc_of_disk ~disks ~procs:a.Parallelize.procs d
             = a.Parallelize.owner.(inst.Concrete.seq)
          then incr hits)
        (Ir.element_accesses nest inst.Concrete.iter))
    g.Concrete.instances;
  float_of_int !hits /. float_of_int !total

let test_layout_aware_localizes () =
  let g = Concrete.build transpose_program in
  let conv = Parallelize.conventional transpose_program g ~procs:4 in
  let aware = Parallelize.layout_aware transpose_layout transpose_program g ~procs:4 in
  let lc = localization transpose_layout transpose_program g conv in
  let la = localization transpose_layout transpose_program g aware in
  check Alcotest.bool
    (Printf.sprintf "layout-aware localizes better (%.2f > %.2f)" la lc)
    true (la > lc);
  (* And reasonably balanced: no processor starves. *)
  let counts = Parallelize.proc_counts aware in
  Array.iter (fun n -> check Alcotest.bool "no starvation" true (n > 10)) counts

(* --- loop transformations --- *)

module Transform = Dp_restructure.Transform

let test_interchange_free_nest () =
  (* Column sweep of a dependence-free nest: interchange is legal and
     swaps the headers without touching subscripts. *)
  let n =
    Ir.nest 0
      [ Ir.loop "j" (c 0) (c 3); Ir.loop "i" (c 0) (c 15) ]
      [ Ir.stmt 0 [ Ir.read "u" [ i; j ] ] ]
  in
  check Alcotest.bool "legal" true (Transform.interchange_legal n 0 1);
  let n' = Transform.interchange n 0 1 in
  check Alcotest.(list string) "swapped" [ "i"; "j" ] (Ir.nest_indices n');
  check Alcotest.int "same trips" (Ir.iteration_count n) (Ir.iteration_count n')

let test_interchange_illegal_dep () =
  (* Dependence (1,-1): interchanging would make it (-1,1), lex
     negative. *)
  let n =
    Ir.nest 0
      [ Ir.loop "i" (c 1) (c 8); Ir.loop "j" (c 1) (c 8) ]
      [
        Ir.stmt 0
          [ Ir.read "u" [ A.sub i (c 1); A.add j (c 1) ]; Ir.write "u" [ i; j ] ];
      ]
  in
  check Alcotest.bool "illegal" false (Transform.interchange_legal n 0 1);
  match Transform.interchange n 0 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "must refuse the interchange"

let test_interchange_triangular_bounds () =
  (* Triangular bounds: the inner bound references the outer index, so
     the swap is rejected on bounds grounds even without dependences. *)
  let n =
    Ir.nest 0
      [ Ir.loop "i" (c 0) (c 7); Ir.loop "j" i (c 7) ]
      [ Ir.stmt 0 [ Ir.read "u" [ i; j ] ] ]
  in
  check Alcotest.bool "triangular swap rejected" false (Transform.interchange_legal n 0 1)

let test_reversal () =
  let n =
    Ir.nest 0
      [ Ir.loop "i" (c 2) (c 5) ]
      [ Ir.stmt 0 [ Ir.read "u" [ i ] ] ]
  in
  check Alcotest.bool "legal" true (Transform.reversal_legal n 0);
  let n' = Transform.reverse n 0 in
  (* The subscript becomes lo + hi - i = 7 - i; the touched element set
     is unchanged. *)
  let elems nest =
    List.map (fun it -> Ir.element_accesses nest it) (Ir.nest_iterations nest)
    |> List.concat_map (List.map snd)
    |> List.sort compare
  in
  check Alcotest.(list (list int)) "same elements" (elems n) (elems n');
  check Alcotest.bool "order actually reversed" true
    (Ir.element_accesses n' [| 2 |] = [ (Ir.read "u" [ A.sub (c 7) i ], [ 5 ]) ])

let test_reversal_illegal () =
  (* Flow dependence (1): reversing makes it (-1). *)
  let n =
    Ir.nest 0
      [ Ir.loop "i" (c 1) (c 8) ]
      [ Ir.stmt 0 [ Ir.read "u" [ A.sub i (c 1) ]; Ir.write "u" [ i ] ] ]
  in
  check Alcotest.bool "illegal" false (Transform.reversal_legal n 0)

let test_normalize_rows_outermost () =
  (* A column-ordered nest gets its row loop rotated to the front; the
     row-ordered one is untouched. *)
  let prog =
    Ir.program
      [ Ir.array_decl ~elem_size:64 "u" [ 16; 4 ] ]
      [
        Ir.nest 0
          [ Ir.loop "j" (c 0) (c 3); Ir.loop "i" (c 0) (c 15) ]
          [ Ir.stmt 0 [ Ir.read "u" [ i; j ] ] ];
        Ir.nest 1
          [ Ir.loop "i" (c 0) (c 15); Ir.loop "j" (c 0) (c 3) ]
          [ Ir.stmt 1 [ Ir.read "u" [ i; j ] ] ];
      ]
  in
  let layout =
    Layout.make ~default:(Striping.make ~unit_bytes:256 ~factor:4 ~start_disk:0) prog
  in
  let prog', changed = Transform.normalize_rows_outermost layout prog in
  check Alcotest.int "one nest changed" 1 changed;
  check Alcotest.(list string) "nest 0 rotated" [ "i"; "j" ]
    (Ir.nest_indices (List.hd prog'.Ir.nests));
  check Alcotest.(list string) "nest 1 untouched" [ "i"; "j" ]
    (Ir.nest_indices (List.nth prog'.Ir.nests 1));
  match Ir.validate prog' with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "transformed program must validate"

let test_strip_mine () =
  let n =
    Ir.nest 0
      [ Ir.loop "i" (c 2) (c 9); Ir.loop "j" (c 0) (c 3) ]
      [ Ir.stmt 0 [ Ir.read "u" [ i; j ] ] ]
  in
  let n' = Transform.strip_mine n ~depth:0 ~width:4 in
  check Alcotest.(list string) "indices" [ "ib"; "ii"; "j" ] (Ir.nest_indices n');
  check Alcotest.int "same trip count" (Ir.iteration_count n) (Ir.iteration_count n');
  (* The element sequence is identical (strip-mining preserves order). *)
  let elems nest =
    List.concat_map
      (fun it -> List.map snd (Ir.element_accesses nest it))
      (Ir.nest_iterations nest)
  in
  check Alcotest.(list (list int)) "same element order" (elems n) (elems n');
  (* Validation of the rejections. *)
  (match Transform.strip_mine n ~depth:0 ~width:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-dividing width rejected");
  let tri =
    Ir.nest 1
      [ Ir.loop "i" (c 0) (c 7); Ir.loop "j" i (c 7) ]
      [ Ir.stmt 0 [ Ir.read "u" [ i; j ] ] ]
  in
  match Transform.strip_mine tri ~depth:1 ~width:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-constant bounds rejected"

let test_tile () =
  (* Tile the inner loop of a free nest: block loop hoisted outermost,
     same element multiset. *)
  let n =
    Ir.nest 0
      [ Ir.loop "i" (c 0) (c 3); Ir.loop "j" (c 0) (c 7) ]
      [ Ir.stmt 0 [ Ir.read "u" [ i; j ] ] ]
  in
  let n' = Transform.tile n ~depth:1 ~width:4 in
  check Alcotest.(list string) "block loop outermost" [ "jb"; "i"; "ji" ]
    (Ir.nest_indices n');
  check Alcotest.int "same trips" (Ir.iteration_count n) (Ir.iteration_count n');
  let elems nest =
    List.concat_map
      (fun it -> List.map snd (Ir.element_accesses nest it))
      (Ir.nest_iterations nest)
    |> List.sort compare
  in
  check Alcotest.(list (list int)) "same element multiset" (elems n) (elems n')

(* --- loop fusion baseline --- *)

module Fusion = Dp_restructure.Fusion

let fusable_program =
  (* Three header-matching nests over distinct arrays (legal to fuse)
     followed by one with different bounds. *)
  Ir.program
    [
      Ir.array_decl ~elem_size:64 "u" [ 4; 4 ];
      Ir.array_decl ~elem_size:64 "w" [ 4; 4 ];
    ]
    [
      Ir.nest 0
        [ Ir.loop "i" (c 0) (c 3); Ir.loop "j" (c 0) (c 3) ]
        [ Ir.stmt 0 [ Ir.write "u" [ i; j ] ] ];
      Ir.nest 1
        [ Ir.loop "i" (c 0) (c 3); Ir.loop "j" (c 0) (c 3) ]
        [ Ir.stmt 1 [ Ir.read "u" [ i; j ]; Ir.write "w" [ i; j ] ] ];
      Ir.nest 2
        [ Ir.loop "i" (c 0) (c 3); Ir.loop "j" (c 0) (c 3) ]
        [ Ir.stmt 2 [ Ir.read "w" [ i; j ] ] ];
      Ir.nest 3
        [ Ir.loop "i" (c 0) (c 1) ]
        [ Ir.stmt 3 [ Ir.read "u" [ i; c 0 ] ] ];
    ]

let test_fusion_groups () =
  let g = Concrete.build fusable_program in
  let gs = Fusion.groups fusable_program g in
  check Alcotest.(list int) "group sizes" [ 3; 1 ]
    (List.map List.length gs);
  let order = Fusion.order fusable_program g in
  check Alcotest.bool "fused order legal" true (Concrete.is_legal_order g order);
  (* The fused group interleaves its nests per iteration: the first three
     emitted instances are iteration (0,0) of each nest. *)
  check Alcotest.(list int) "interleaved head" [ 0; 16; 32 ]
    (Array.to_list (Array.sub order 0 3))

let test_fusion_illegal_backward_dep () =
  (* nest 1 writes an element a LATER iteration of nest 0 reads...
     actually the blocking case: nest 1 reads u[i+1][j], written by a
     LATER iteration of nest 0 -> fusing would break the dependence. *)
  let prog =
    Ir.program
      [ Ir.array_decl ~elem_size:64 "u" [ 5; 4 ] ]
      [
        Ir.nest 0
          [ Ir.loop "i" (c 0) (c 3); Ir.loop "j" (c 0) (c 3) ]
          [ Ir.stmt 0 [ Ir.write "u" [ i; j ] ] ];
        Ir.nest 1
          [ Ir.loop "i" (c 0) (c 3); Ir.loop "j" (c 0) (c 3) ]
          [ Ir.stmt 1 [ Ir.read "u" [ A.add i (c 1); j ] ] ];
      ]
  in
  let g = Concrete.build prog in
  let n0 = List.hd prog.Ir.nests and n1 = List.nth prog.Ir.nests 1 in
  check Alcotest.bool "headers match" true (Fusion.headers_match n0 n1);
  check Alcotest.bool "fusion illegal" false (Fusion.fusion_legal g n0 n1);
  check Alcotest.(list int) "stays unfused" [ 1; 1 ]
    (List.map List.length (Fusion.groups prog g));
  check Alcotest.bool "order still legal" true
    (Concrete.is_legal_order g (Fusion.order prog g))

let test_fusion_on_workload () =
  let app = Option.get (Dp_workloads.Workloads.by_name "Visuo") in
  let g = Concrete.build app.Dp_workloads.App.program in
  let order = Fusion.order app.Dp_workloads.App.program g in
  check Alcotest.bool "legal on Visuo" true (Concrete.is_legal_order g order)

(* --- layout optimizer (paper's future work) --- *)

let test_layout_opt () =
  let app = Option.get (Dp_workloads.Workloads.by_name "AST") in
  let prog = app.Dp_workloads.App.program in
  let g = Concrete.build prog in
  let module Opt = Dp_restructure.Layout_opt in
  let res = Opt.optimize ~factor:8 ~initial:app.Dp_workloads.App.overrides prog g in
  (* Every array keeps a striping, and all are valid over 8 nodes. *)
  check Alcotest.int "striping per array" (List.length prog.Ir.arrays)
    (List.length res.Opt.stripings);
  List.iter
    (fun (_, (s : Striping.t)) ->
      check Alcotest.bool "factor 8" true (s.Striping.factor = 8);
      check Alcotest.bool "valid start" true (s.Striping.start_disk < 8))
    res.Opt.stripings;
  (* Coordinate descent can only improve the objective. *)
  check Alcotest.bool
    (Printf.sprintf "cost improves (%.3f <= %.3f)" res.Opt.cost res.Opt.baseline_cost)
    true
    (res.Opt.cost <= res.Opt.baseline_cost +. 1e-9);
  (* The reported cost is the cost of the reported stripings. *)
  check (Alcotest.float 1e-6) "cost consistent" res.Opt.cost
    (Opt.cost prog g ~stripings:res.Opt.stripings);
  (* Deterministic. *)
  let res2 = Opt.optimize ~factor:8 ~initial:app.Dp_workloads.App.overrides prog g in
  check Alcotest.bool "deterministic" true (res.Opt.stripings = res2.Opt.stripings)

let test_layout_opt_validation () =
  let g = Concrete.build free_program in
  match
    Dp_restructure.Layout_opt.optimize ~factor:4 ~initial:[] free_program g
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing initial striping must be rejected"

let test_workload_schedules_legal () =
  (* The full pipeline on the six Table-2 applications: the one-CPU
     restructured order is a legal permutation, and at four processors
     every segment of both restructured modes is legal on the sub-graph
     it induces while all segments together cover each instance once —
     the compile-side chaos oracle, run on the real workloads. *)
  List.iter
    (fun (app : Dp_workloads.App.t) ->
      let name = app.Dp_workloads.App.name in
      let ctx = Pipeline.of_app app in
      let g = Pipeline.graph ctx in
      let s = Reuse.schedule (Pipeline.cluster_table ctx) g in
      check Alcotest.bool (name ^ " schedule legal") true
        (Concrete.is_legal_order g s.Reuse.order);
      List.iter
        (fun mode ->
          let segs, _ = Pipeline.streams ctx ~procs:4 mode in
          check
            Alcotest.(list string)
            (Printf.sprintf "%s %s streams at 4 CPUs" name (Pipeline.mode_name mode))
            []
            (List.map
               (fun (v : Dp_chaos.Check.violation) -> v.check ^ ": " ^ v.detail)
               (Dp_chaos.Check.compile_violations g segs)))
        [ Pipeline.Reuse_single; Pipeline.Reuse_multi ];
      check Alcotest.int (name ^ ": one cluster table for both modes") 1
        (Pipeline.stats ctx).Pipeline.cluster_builds)
    (Dp_workloads.Workloads.all ())

(* --- scheduler fuzzing on random programs and layouts --- *)

(* Random 2-deep rectangular programs over two arrays, with stencil-ish
   subscripts and random read/write modes, under a random row striping.
   Properties: the reuse schedule is a legal permutation, and so are the
   per-processor subsets. *)
let random_program_gen =
  QCheck2.Gen.(
    let subscript rows cols =
      oneofl
        [
          (fun iv jv -> ignore jv; [ iv; A.const 0 ]);
          (fun iv jv -> [ iv; jv ]);
          (fun iv jv -> [ A.add iv (A.const 1); jv ]);
          (fun iv jv -> [ iv; A.add jv (A.const 1) ]);
          (fun iv jv -> ignore (rows, cols); [ jv; iv ]);
        ]
    in
    let nest_gen ~rows ~cols id =
      let* n_stmts = int_range 1 2 in
      let* stmts =
        list_repeat n_stmts
          (let* arr = oneofl [ "u"; "w" ] in
           let* write = bool in
           let* sub = subscript rows cols in
           pure (arr, write, sub))
      in
      let body =
        List.mapi
          (fun k (arr, write, sub) ->
            let r =
              (if write then Ir.write else Ir.read) arr
                (sub (A.var "i") (A.var "j"))
            in
            Ir.stmt ((id * 10) + k) [ r ])
          stmts
      in
      pure
        (Ir.nest id
           [ Ir.loop "i" (c 0) (c (rows - 2)); Ir.loop "j" (c 0) (c (cols - 2)) ]
           body)
    in
    let* rows = int_range 4 9 in
    let* cols = int_range 4 7 in
    let side = max rows cols in
    let* n_nests = int_range 1 3 in
    let* nests =
      List.init n_nests (fun id -> nest_gen ~rows:side ~cols:side id) |> flatten_l
    in
    let* start_u = int_range 0 3 in
    let* start_w = int_range 0 3 in
    let* rows_per_stripe = int_range 1 2 in
    let arrays =
      [ Ir.array_decl ~elem_size:64 "u" [ side; side ];
        Ir.array_decl ~elem_size:64 "w" [ side; side ] ]
    in
    let unit = rows_per_stripe * side * 64 in
    pure
      ( Ir.program arrays nests,
        [
          ("u", Striping.make ~unit_bytes:unit ~factor:4 ~start_disk:start_u);
          ("w", Striping.make ~unit_bytes:unit ~factor:4 ~start_disk:start_w);
        ] ))

let prop_schedule_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:80 ~name:"Reuse: random programs schedule legally"
       random_program_gen
       (fun (prog, stripings) ->
         match Ir.validate prog with
         | Error _ -> QCheck2.assume_fail ()
         | Ok () ->
             let layout = Layout.make ~overrides:stripings prog in
             let g = Concrete.build prog in
             let s = Reuse.schedule (Cluster.build_table layout prog g) g in
             Concrete.is_legal_order g s.Reuse.order
             && s.Reuse.rounds >= 1
             && Dp_util.Listx.sum_by snd s.Reuse.visits
                <= Concrete.instance_count g))

let prop_subset_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"Reuse: per-processor subsets partition the program"
       random_program_gen
       (fun (prog, stripings) ->
         match Ir.validate prog with
         | Error _ -> QCheck2.assume_fail ()
         | Ok () ->
             let layout = Layout.make ~overrides:stripings prog in
             let g = Concrete.build prog in
             let a = Parallelize.layout_aware layout prog g ~procs:2 in
             let part = a.Parallelize.owner in
             let orders =
               Array.map
                 (fun (s : Reuse.schedule) -> s.Reuse.order)
                 (Reuse.schedule_parts (Cluster.build_table layout prog g) g ~part
                    ~start_disks:[| 0; 2 |])
             in
             let all =
               Array.to_list orders |> List.concat_map Array.to_list |> List.sort compare
             in
             all = List.init (Concrete.instance_count g) Fun.id
             && Concrete.check_parts g ~part orders = Ok ()))

(* Parts are independent: one call over k parts gives each part exactly
   the schedule a one-part call on that part alone gives, start disk
   included.  Instances drawn into part -1 are left out of both. *)
let prop_parts_independent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"Reuse: parts schedule as if alone"
       QCheck2.Gen.(triple random_program_gen (int_range 1 4) (int_bound 1_000_000))
       (fun ((prog, stripings), k, seed) ->
         match Ir.validate prog with
         | Error _ -> QCheck2.assume_fail ()
         | Ok () ->
             let layout = Layout.make ~overrides:stripings prog in
             let g = Concrete.build prog in
             let table = Cluster.build_table layout prog g in
             let rng = Random.State.make [| seed |] in
             let part =
               Array.init (Concrete.instance_count g) (fun _ ->
                   Random.State.int rng (k + 1) - 1)
             in
             let start_disks = Array.init k (fun _ -> Random.State.int rng 4) in
             let together = Reuse.schedule_parts table g ~part ~start_disks in
             Array.length together = k
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun p (s : Reuse.schedule) ->
                       let alone =
                         (Reuse.schedule_parts table g
                            ~part:(Array.map (fun q -> if q = p then 0 else -1) part)
                            ~start_disks:[| start_disks.(p) |]).(0)
                       in
                       s.Reuse.order = alone.Reuse.order
                       && s.Reuse.rounds = alone.Reuse.rounds
                       && s.Reuse.visits = alone.Reuse.visits)
                     together)))

let suites =
  [
    ( "restructure.scheduler",
      [
        Alcotest.test_case "figure 4 walkthrough" `Quick test_fig4_walkthrough;
        Alcotest.test_case "perfect reuse" `Quick test_perfect_reuse;
        Alcotest.test_case "start-disk rotation" `Quick test_start_disk_rotation;
        Alcotest.test_case "subset scheduling" `Quick test_subset_part;
        Alcotest.test_case "workload schedules legal" `Slow test_workload_schedules_legal;
        prop_schedule_fuzz;
        prop_subset_fuzz;
        prop_parts_independent;
      ] );
    ("restructure.cluster", [ Alcotest.test_case "policies" `Quick test_cluster_policies ]);
    ( "restructure.symbolic",
      [
        Alcotest.test_case "per-disk sets" `Quick test_symbolic_sets;
        Alcotest.test_case "restructured shape" `Quick test_symbolic_restructure_shape;
        Alcotest.test_case "unsupported cases" `Quick test_symbolic_unsupported;
      ] );
    ( "restructure.transform",
      [
        Alcotest.test_case "interchange free nest" `Quick test_interchange_free_nest;
        Alcotest.test_case "interchange illegal dep" `Quick test_interchange_illegal_dep;
        Alcotest.test_case "triangular bounds" `Quick test_interchange_triangular_bounds;
        Alcotest.test_case "reversal" `Quick test_reversal;
        Alcotest.test_case "reversal illegal" `Quick test_reversal_illegal;
        Alcotest.test_case "normalize rows outermost" `Quick test_normalize_rows_outermost;
        Alcotest.test_case "strip-mine" `Quick test_strip_mine;
        Alcotest.test_case "tile" `Quick test_tile;
      ] );
    ( "restructure.fusion",
      [
        Alcotest.test_case "groups and order" `Quick test_fusion_groups;
        Alcotest.test_case "illegal backward dep" `Quick test_fusion_illegal_backward_dep;
        Alcotest.test_case "workload legality" `Slow test_fusion_on_workload;
      ] );
    ( "restructure.layout_opt",
      [
        Alcotest.test_case "optimizer" `Slow test_layout_opt;
        Alcotest.test_case "validation" `Quick test_layout_opt_validation;
      ] );
    ( "restructure.parallelize",
      [
        Alcotest.test_case "conventional" `Quick test_conventional;
        Alcotest.test_case "distributions" `Quick test_distributions;
        Alcotest.test_case "layout-aware localizes" `Quick test_layout_aware_localizes;
      ] );
  ]
