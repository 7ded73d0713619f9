(* Tests for striping and the program-level disk layout. *)

module Striping = Dp_layout.Striping
module Layout = Dp_layout.Layout
module Ir = Dp_ir.Ir

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_striping_basics () =
  let s = Striping.make ~unit_bytes:1024 ~factor:4 ~start_disk:1 in
  check Alcotest.int "stripe of 0" 0 (Striping.stripe_of_offset s 0);
  check Alcotest.int "stripe of 1023" 0 (Striping.stripe_of_offset s 1023);
  check Alcotest.int "stripe of 1024" 1 (Striping.stripe_of_offset s 1024);
  check Alcotest.int "disk of stripe 0" 1 (Striping.disk_of_stripe s 0);
  check Alcotest.int "disk of stripe 3" 0 (Striping.disk_of_stripe s 3);
  check Alcotest.int "disk of offset 5000" (Striping.disk_of_stripe s 4)
    (Striping.disk_of_offset s 5000);
  check Alcotest.int "table 1 default factor" 8 Striping.default.Striping.factor;
  check Alcotest.int "table 1 default unit" (32 * 1024) Striping.default.Striping.unit_bytes

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_striping_validation () =
  expect_invalid (fun () -> Striping.make ~unit_bytes:0 ~factor:4 ~start_disk:0);
  expect_invalid (fun () -> Striping.make ~unit_bytes:8 ~factor:0 ~start_disk:0);
  expect_invalid (fun () -> Striping.make ~unit_bytes:8 ~factor:4 ~start_disk:4)

let test_striping_span () =
  let s = Striping.make ~unit_bytes:100 ~factor:3 ~start_disk:0 in
  let pieces = Striping.span s ~offset:50 ~size:250 in
  check Alcotest.int "three pieces" 3 (List.length pieces);
  check
    Alcotest.(list (triple int int int))
    "pieces"
    [ (0, 50, 50); (1, 100, 100); (2, 200, 100) ]
    pieces;
  check Alcotest.int "sizes sum" 250 (List.fold_left (fun a (_, _, sz) -> a + sz) 0 pieces)

let program =
  Ir.program
    [
      Ir.array_decl ~elem_size:512 "u" [ 4; 8 ] (* row = 4 KB = 1 stripe *);
      Ir.array_decl ~elem_size:512 "w" [ 4; 8 ];
    ]
    []

let stripe_row = Striping.make ~unit_bytes:(8 * 512) ~factor:4 ~start_disk:0

let layout =
  Layout.make ~default:stripe_row
    ~overrides:[ ("w", Striping.make ~unit_bytes:(8 * 512) ~factor:4 ~start_disk:2) ]
    program

let test_layout_mapping () =
  check Alcotest.int "disks" 4 layout.Layout.disk_count;
  check Alcotest.int "u[0][*] disk" 0 (Layout.disk_of_element layout "u" [ 0; 3 ]);
  check Alcotest.int "u[1][*] disk" 1 (Layout.disk_of_element layout "u" [ 1; 0 ]);
  check Alcotest.int "w[0][*] staggered" 2 (Layout.disk_of_element layout "w" [ 0; 0 ]);
  check Alcotest.int "w[3][*]" 1 (Layout.disk_of_element layout "w" [ 3; 0 ]);
  let au = Layout.element_address layout "u" [ 3; 7 ] in
  let aw = Layout.element_address layout "w" [ 0; 0 ] in
  check Alcotest.bool "w after u" true (aw >= au + 512);
  check Alcotest.int "file offset" (9 * 512) (Layout.element_file_offset layout "u" [ 1; 1 ]);
  check Alcotest.int "elements per stripe" 8 (Layout.elements_per_stripe layout "u");
  let d, addr, size = Layout.request_of_element layout "u" [ 2; 1 ] in
  check Alcotest.int "request disk" 2 d;
  check Alcotest.int "request size" 512 size;
  check Alcotest.int "request addr" (Layout.element_address layout "u" [ 2; 1 ]) addr;
  check Alcotest.int "disk_of_address roundtrip" d (Layout.disk_of_address layout addr)

let test_layout_lba () =
  let lba_row0_last = Layout.lba_of_element layout "u" [ 0; 7 ] in
  let lba_row0_first = Layout.lba_of_element layout "u" [ 0; 0 ] in
  check Alcotest.int "within-stripe delta" (7 * 512) (lba_row0_last - lba_row0_first);
  (* Rows 0 and 4 of a taller array sit on the same disk, in adjacent
     stripes: LBA-contiguous although four stripes apart in the file. *)
  let tall = Ir.program [ Ir.array_decl ~elem_size:512 "t" [ 16; 8 ] ] [] in
  let l2 = Layout.make ~default:stripe_row tall in
  let last_of_row0 = Layout.lba_of_element l2 "t" [ 0; 7 ] in
  let first_of_row4 = Layout.lba_of_element l2 "t" [ 4; 0 ] in
  check Alcotest.int "next stripe on same disk is LBA-adjacent" 512
    (first_of_row4 - last_of_row0);
  check Alcotest.int "same disk"
    (Layout.disk_of_element l2 "t" [ 0; 0 ])
    (Layout.disk_of_element l2 "t" [ 4; 0 ])

let test_layout_errors () =
  Alcotest.check_raises "unknown array" Not_found (fun () ->
      ignore (Layout.find layout "zz"));
  expect_invalid (fun () -> Layout.make ~overrides:[ ("zz", stripe_row) ] program);
  expect_invalid (fun () -> Layout.disk_of_element layout "u" [ 9 ]);
  Alcotest.check_raises "out of bounds"
    (Layout.Out_of_bounds { array = "u"; dim = 0; coord = 9; extent = 4 })
    (fun () -> ignore (Layout.disk_of_element layout "u" [ 9; 0 ]));
  Alcotest.check_raises "out of bounds, inner dimension"
    (Layout.Out_of_bounds { array = "u"; dim = 1; coord = -1; extent = 8 })
    (fun () -> ignore (Layout.lba_of_element layout "u" [ 1; -1 ]))

let prop_disk_in_range =
  qtest "Layout: disk always within factor"
    QCheck2.Gen.(pair (int_range 0 3) (int_range 0 7))
    (fun (i, j) ->
      let d = Layout.disk_of_element layout "u" [ i; j ] in
      d >= 0 && d < 4)

let prop_lba_injective_per_disk =
  qtest "Layout: (disk, lba) identifies the element"
    QCheck2.Gen.(
      pair
        (pair (int_range 0 3) (int_range 0 7))
        (pair (int_range 0 3) (int_range 0 7)))
    (fun ((i1, j1), (i2, j2)) ->
      let l1 = Layout.lba_of_element layout "u" [ i1; j1 ] in
      let l2 = Layout.lba_of_element layout "u" [ i2; j2 ] in
      let d1 = Layout.disk_of_element layout "u" [ i1; j1 ] in
      let d2 = Layout.disk_of_element layout "u" [ i2; j2 ] in
      (not (l1 = l2 && d1 = d2)) || (i1 = i2 && j1 = j2))

let suites =
  [
    ( "layout.striping",
      [
        Alcotest.test_case "basics" `Quick test_striping_basics;
        Alcotest.test_case "validation" `Quick test_striping_validation;
        Alcotest.test_case "span" `Quick test_striping_span;
      ] );
    ( "layout",
      [
        Alcotest.test_case "mapping" `Quick test_layout_mapping;
        Alcotest.test_case "lba space" `Quick test_layout_lba;
        Alcotest.test_case "errors" `Quick test_layout_errors;
        prop_disk_in_range;
        prop_lba_injective_per_disk;
      ] );
  ]
