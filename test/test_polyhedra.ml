(* Tests for the omega-lite integer set library: constraints, sets and
   loop code generation. *)

module Lincons = Dp_polyhedra.Lincons
module Iset = Dp_polyhedra.Iset
module Codegen = Dp_polyhedra.Codegen
module Ir = Dp_ir.Ir
module A = Dp_affine.Affine

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let x = A.var "x"
let y = A.var "y"
let c = A.const

(* --- Lincons --- *)

let test_lincons_eval () =
  let env = function "x" -> 7 | "y" -> 2 | _ -> raise Not_found in
  check Alcotest.bool "x - 5 >= 0 at 7" true (Lincons.eval env (Lincons.ge (A.sub x (c 5))));
  check Alcotest.bool "x - y = 5" true (Lincons.eval env (Lincons.eq (A.sub x y) (c 5)));
  check Alcotest.bool "x = 1 (mod 3)" true
    (Lincons.eval env (Lincons.stride (A.sub x (c 1)) 3));
  check Alcotest.bool "x = 0 (mod 3)" false (Lincons.eval env (Lincons.stride x 3));
  check Alcotest.bool "negative operand mod" true
    (Lincons.eval (fun _ -> -3) (Lincons.stride (A.var "x") 3))

let test_lincons_trivial () =
  check Alcotest.bool "3 >= 0 true" true (Lincons.is_trivially_true (Lincons.ge (c 3)));
  check Alcotest.bool "-1 >= 0 false" true
    (Lincons.is_trivially_false (Lincons.ge (c (-1))));
  check Alcotest.bool "mod 1 trivial" true (Lincons.is_trivially_true (Lincons.stride x 1));
  check Alcotest.bool "x >= 0 not trivial" false
    (Lincons.is_trivially_true (Lincons.ge x))

(* --- Iset --- *)

let box2 xlo xhi ylo yhi =
  Iset.make [ "x"; "y" ]
    [
      Lincons.le (c xlo) x;
      Lincons.le x (c xhi);
      Lincons.le (c ylo) y;
      Lincons.le y (c yhi);
    ]

let test_iset_enumerate_box () =
  let s = box2 0 2 1 2 in
  let pts = Iset.enumerate s in
  check Alcotest.int "6 points" 6 (List.length pts);
  check Alcotest.(array int) "first point" [| 0; 1 |] (List.hd pts);
  check Alcotest.(array int) "last point" [| 2; 2 |] (List.nth pts 5);
  check Alcotest.int "cardinal" 6 (Iset.cardinal s);
  check Alcotest.bool "contains" true (Iset.contains s [| 1; 2 |]);
  check Alcotest.bool "not contains" false (Iset.contains s [| 1; 0 |])

let test_iset_triangle () =
  (* x in [0,3], y in [x,3] *)
  let s =
    Iset.make [ "x"; "y" ]
      [ Lincons.le (c 0) x; Lincons.le x (c 3); Lincons.le x y; Lincons.le y (c 3) ]
  in
  check Alcotest.int "triangle cardinal" 10 (Iset.cardinal s)

let test_iset_stride () =
  let s = Iset.constrain (box2 0 10 0 0) [ Lincons.stride (A.sub x (c 1)) 4 ] in
  let xs = List.map (fun p -> p.(0)) (Iset.enumerate s) in
  check Alcotest.(list int) "x = 1 mod 4" [ 1; 5; 9 ] xs

let test_iset_empty () =
  let s = Iset.constrain (box2 0 5 0 5) [ Lincons.le (c 7) x ] in
  check Alcotest.bool "definitely empty" true (Iset.definitely_empty s);
  check Alcotest.bool "exactly empty" true (Iset.is_empty_exact s);
  (* Integer-empty but rationally nonempty: 1 <= 2x <= 1 has x = 1/2. *)
  let s2 =
    Iset.make [ "x" ]
      [ Lincons.ge (A.sub (A.scale 2 x) (c 1)); Lincons.ge (A.sub (c 1) (A.scale 2 x)) ]
  in
  check Alcotest.bool "rational relaxation cannot prove" false (Iset.definitely_empty s2);
  check Alcotest.bool "scan proves empty" true (Iset.is_empty_exact s2)

let test_iset_eliminate () =
  (* Project {0<=x<=3, x<=y<=x+1} onto x: still 0..3. *)
  let s =
    Iset.make [ "x"; "y" ]
      [
        Lincons.le (c 0) x;
        Lincons.le x (c 3);
        Lincons.le x y;
        Lincons.le y (A.add x (c 1));
      ]
  in
  let p = Iset.eliminate "y" s in
  check Alcotest.(list string) "one var left" [ "x" ] p.Iset.vars;
  check Alcotest.int "projection cardinal" 4 (Iset.cardinal p)

let test_iset_unbounded () =
  let s = Iset.make [ "x" ] [ Lincons.le (c 0) x ] in
  Alcotest.check_raises "unbounded raises" (Iset.Unbounded "x") (fun () ->
      ignore (Iset.enumerate s))

let test_iset_of_nest () =
  let n =
    Ir.nest 0
      [ Ir.loop "i" (c 0) (c 4); Ir.loop "j" (A.var "i") (c 4) ]
      [ Ir.stmt 0 [] ]
  in
  let s = Iset.of_nest n in
  check Alcotest.int "matches enumeration" (Ir.iteration_count n) (Iset.cardinal s)

(* Random small sets over x,y: box plus optional extras. *)
let small_set_gen =
  QCheck2.Gen.(
    let bound = int_range (-4) 6 in
    map2
      (fun (xlo, xhi, ylo, yhi) extras ->
        let base =
          [
            Lincons.le (c xlo) x;
            Lincons.le x (c (max xlo xhi));
            Lincons.le (c ylo) y;
            Lincons.le y (c (max ylo yhi));
          ]
        in
        Iset.make [ "x"; "y" ] (base @ extras))
      (quad bound bound bound bound)
      (list_size (int_range 0 2)
         (oneof
            [
              map2
                (fun a b -> Lincons.ge (A.of_terms ~const:b [ ("x", a); ("y", 1) ]))
                (int_range (-2) 2) (int_range (-5) 5);
              map2
                (fun m r -> Lincons.stride (A.sub (A.add x y) (c r)) (m + 1))
                (int_range 1 3) (int_range 0 3);
            ])))

let brute_force s =
  (* Enumerate candidate points over a generous box and filter. *)
  let pts = ref [] in
  for xv = -10 to 12 do
    for yv = -10 to 12 do
      if Iset.contains s [| xv; yv |] then pts := [| xv; yv |] :: !pts
    done
  done;
  List.rev !pts

let prop_enumerate_exact =
  qtest ~count:120 "Iset: enumerate = brute force" small_set_gen (fun s ->
      let fast = Iset.enumerate s in
      let slow = brute_force s in
      List.sort compare fast = List.sort compare slow)

let prop_eliminate_sound =
  qtest ~count:120 "Iset: projection contains every projected point" small_set_gen
    (fun s ->
      let p = Iset.eliminate "y" s in
      List.for_all (fun pt -> Iset.contains p [| pt.(0) |]) (Iset.enumerate s))

let test_iset_misc () =
  let u = Iset.universe [ "x" ] in
  check Alcotest.bool "universe contains" true (Iset.contains u [| 42 |]);
  let s = box2 0 3 0 3 in
  let renamed = Iset.rename_var s "x" "z" in
  check Alcotest.(list string) "renamed vars" [ "z"; "y" ] renamed.Iset.vars;
  check Alcotest.int "same cardinal" (Iset.cardinal s) (Iset.cardinal renamed);
  (match Iset.intersect s (Iset.universe [ "a"; "b" ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched vars rejected");
  match Iset.make [ "x"; "x" ] [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate vars rejected"

(* --- Codegen --- *)

let test_codegen_box () =
  let s = box2 0 2 1 2 in
  let code = Codegen.scan s ~payload:"S" in
  let scanned = Codegen.points_of_code code (fun v -> failwith ("free var " ^ v)) in
  check
    Alcotest.(list (array int))
    "codegen scans the box" (Iset.enumerate s) scanned

let test_codegen_stride () =
  let s = Iset.constrain (box2 0 10 0 0) [ Lincons.stride (A.sub x (c 3)) 4 ] in
  let code = Codegen.scan s ~payload:"S" in
  let scanned = Codegen.points_of_code code (fun _ -> 0) in
  check
    Alcotest.(list (array int))
    "strided scan" (Iset.enumerate s) scanned;
  (* The loop header carries the step. *)
  match code with
  | [ Codegen.For { step; _ } ] -> check Alcotest.int "step 4" 4 step
  | _ -> Alcotest.fail "expected a single for"

let prop_codegen_matches_enumerate =
  qtest ~count:120 "Codegen: generated loops scan exactly the set" small_set_gen (fun s ->
      match Codegen.scan s ~payload:"S" with
      | code ->
          let scanned = Codegen.points_of_code code (fun _ -> 0) in
          List.sort compare scanned = List.sort compare (Iset.enumerate s)
          && scanned = Iset.enumerate s (* same lexicographic order *)
      | exception Iset.Unbounded _ -> QCheck2.assume_fail ())

let suites =
  [
    ( "polyhedra.lincons",
      [
        Alcotest.test_case "eval" `Quick test_lincons_eval;
        Alcotest.test_case "trivial" `Quick test_lincons_trivial;
      ] );
    ( "polyhedra.iset",
      [
        Alcotest.test_case "box enumeration" `Quick test_iset_enumerate_box;
        Alcotest.test_case "triangle" `Quick test_iset_triangle;
        Alcotest.test_case "stride" `Quick test_iset_stride;
        Alcotest.test_case "emptiness" `Quick test_iset_empty;
        Alcotest.test_case "eliminate" `Quick test_iset_eliminate;
        Alcotest.test_case "unbounded" `Quick test_iset_unbounded;
        Alcotest.test_case "of_nest" `Quick test_iset_of_nest;
        prop_enumerate_exact;
        prop_eliminate_sound;
        Alcotest.test_case "universe/rename/validation" `Quick test_iset_misc;
      ] );
    ( "polyhedra.codegen",
      [
        Alcotest.test_case "box" `Quick test_codegen_box;
        Alcotest.test_case "stride" `Quick test_codegen_stride;
        prop_codegen_matches_enumerate;
      ] );
  ]
