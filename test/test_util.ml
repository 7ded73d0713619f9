(* Unit and property tests for Dp_util: rationals, integer vectors, list
   helpers, the binary min-heap and the JSON codec. *)

module Rat = Dp_util.Rat
module Ivec = Dp_util.Ivec
module Listx = Dp_util.Listx
module Minheap = Dp_util.Minheap
module Json = Dp_util.Json

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Rat --- *)

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_normalization () =
  check rat "6/8 = 3/4" (Rat.make 3 4) (Rat.make 6 8);
  check rat "-1/-2 = 1/2" (Rat.make 1 2) (Rat.make (-1) (-2));
  check rat "1/-2 = -1/2" (Rat.make (-1) 2) (Rat.make 1 (-2));
  check Alcotest.int "den of 0 is 1" 1 (Rat.den (Rat.make 0 17));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Rat.make 1 0))

let test_rat_arith () =
  check rat "1/2 + 1/3" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  check rat "1/2 - 1/3" (Rat.make 1 6) (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  check rat "2/3 * 3/4" (Rat.make 1 2) (Rat.mul (Rat.make 2 3) (Rat.make 3 4));
  check rat "1/2 / 1/4" (Rat.of_int 2) (Rat.div (Rat.make 1 2) (Rat.make 1 4));
  Alcotest.check_raises "divide by zero" Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero))

let test_rat_floor_ceil () =
  check Alcotest.int "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  check Alcotest.int "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
  check Alcotest.int "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
  check Alcotest.int "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
  check Alcotest.int "floor of integer" 5 (Rat.floor (Rat.of_int 5));
  check Alcotest.int "ceil of integer" 5 (Rat.ceil (Rat.of_int 5))

let small_rat_gen =
  QCheck2.Gen.(
    map2
      (fun n d -> Rat.make n d)
      (int_range (-1000) 1000)
      (map (fun d -> if d >= 0 then d + 1 else d) (int_range (-1000) 999)))

let prop_rat_add_commutes =
  qtest "Rat: a+b = b+a" QCheck2.Gen.(pair small_rat_gen small_rat_gen) (fun (a, b) ->
      Rat.equal (Rat.add a b) (Rat.add b a))

let prop_rat_mul_inverse =
  qtest "Rat: a * inv a = 1 (a <> 0)" small_rat_gen (fun a ->
      Rat.sign a = 0 || Rat.equal (Rat.mul a (Rat.inv a)) Rat.one)

let prop_rat_floor_le =
  qtest "Rat: floor a <= a <= ceil a" small_rat_gen (fun a ->
      Rat.compare (Rat.of_int (Rat.floor a)) a <= 0
      && Rat.compare a (Rat.of_int (Rat.ceil a)) <= 0
      && Rat.ceil a - Rat.floor a <= 1)

let prop_rat_normal_form =
  qtest "Rat: results are in normal form" QCheck2.Gen.(pair small_rat_gen small_rat_gen)
    (fun (a, b) ->
      let c = Rat.add (Rat.mul a b) (Rat.sub a b) in
      let rec gcd x y = if y = 0 then abs x else gcd y (x mod y) in
      Rat.den c > 0 && gcd (Rat.num c) (Rat.den c) = 1)

(* --- Ivec --- *)

let test_ivec_lex () =
  check Alcotest.bool "(0,1) lex positive" true (Ivec.is_lex_positive [| 0; 1 |]);
  check Alcotest.bool "(0,-1) lex negative" true (Ivec.is_lex_negative [| 0; -1 |]);
  check Alcotest.bool "zero not positive" false (Ivec.is_lex_positive [| 0; 0 |]);
  check Alcotest.bool "zero is zero" true (Ivec.is_zero [| 0; 0 |]);
  check Alcotest.int "compare (1,0) (0,9)" 1
    (compare (Ivec.compare_lex [| 1; 0 |] [| 0; 9 |]) 0);
  check Alcotest.(option int) "first_nonzero" (Some 1) (Ivec.first_nonzero [| 0; 3; 1 |])

let test_ivec_arith () =
  check Alcotest.(array int) "add" [| 4; 6 |] (Ivec.add [| 1; 2 |] [| 3; 4 |]);
  check Alcotest.(array int) "sub" [| -2; -2 |] (Ivec.sub [| 1; 2 |] [| 3; 4 |]);
  check Alcotest.int "dot" 11 (Ivec.dot [| 1; 2 |] [| 3; 4 |]);
  Alcotest.check_raises "dimension mismatch" (Invalid_argument "Ivec: dimension mismatch")
    (fun () -> ignore (Ivec.add [| 1 |] [| 1; 2 |]))

let ivec_gen = QCheck2.Gen.(array_size (int_range 1 6) (int_range (-50) 50))

let prop_ivec_neg_antisym =
  qtest "Ivec: v lex-positive iff -v lex-negative" ivec_gen (fun v ->
      Ivec.is_zero v || Ivec.is_lex_positive v = Ivec.is_lex_negative (Ivec.neg v))

let prop_ivec_compare_total =
  qtest "Ivec: compare_lex total and consistent with negation"
    QCheck2.Gen.(
      pair ivec_gen ivec_gen |> map (fun (a, b) ->
          if Array.length a = Array.length b then (a, b) else (a, Array.copy a)))
    (fun (a, b) ->
      let c = Ivec.compare_lex a b and c' = Ivec.compare_lex b a in
      compare c 0 = -compare c' 0)

(* --- Listx --- *)

let test_listx_group_by () =
  let groups = Listx.group_by (fun x -> x mod 3) [ 1; 2; 3; 4; 5; 6; 7 ] in
  check
    Alcotest.(list (pair int (list int)))
    "groups by residue, first-seen order"
    [ (1, [ 1; 4; 7 ]); (2, [ 2; 5 ]); (0, [ 3; 6 ]) ]
    groups

let test_listx_misc () =
  check Alcotest.(option int) "max_by" (Some (-9)) (Listx.max_by abs [ 3; -9; 7 ]);
  check Alcotest.int "sum_by" 19 (Listx.sum_by abs [ 3; -9; 7 ]);
  check Alcotest.(list int) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  check Alcotest.(list int) "take beyond" [ 1 ] (Listx.take 5 [ 1 ]);
  check Alcotest.(list int) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  check Alcotest.(list int) "range" [ 2; 3; 4 ] (Listx.range 2 4);
  check Alcotest.(list int) "empty range" [] (Listx.range 4 2);
  check Alcotest.(option int) "index_of" (Some 1) (Listx.index_of (( = ) 5) [ 4; 5; 6 ]);
  check Alcotest.(list int) "uniq" [ 1; 2; 3 ] (Listx.uniq ( = ) [ 1; 2; 1; 3; 2 ])

let prop_take_drop =
  qtest "Listx: take n @ drop n = id"
    QCheck2.Gen.(pair (int_range 0 20) (list_size (int_range 0 15) small_int))
    (fun (n, l) -> Listx.take n l @ Listx.drop n l = l)

(* --- Minheap --- *)

let test_minheap_basic () =
  let h = Minheap.create ~capacity:1 () in
  check Alcotest.bool "fresh heap empty" true (Minheap.is_empty h);
  List.iteri (fun id key -> Minheap.add h ~key id) [ 5.0; 1.0; 4.0; 1.0; 3.0 ];
  check Alcotest.int "size" 5 (Minheap.size h);
  check Alcotest.int "top: the least key, the lower id on a tie" 1 (Minheap.top h);
  check (Alcotest.float 0.0) "top_key" 1.0 (Minheap.top_key h);
  (* Id 1 comes back under 4.0, between ids 4 (3.0) and 2 (4.0). *)
  Minheap.replace_top h ~key:4.0 1;
  let drained =
    List.init 5 (fun _ ->
        let id = Minheap.top h in
        Minheap.pop h;
        id)
  in
  check Alcotest.(list int) "drains by (key, id)" [ 3; 4; 1; 2; 0 ] drained;
  Alcotest.check_raises "pop empty" Not_found (fun () -> Minheap.pop h);
  Alcotest.check_raises "top empty" Not_found (fun () -> ignore (Minheap.top h));
  Alcotest.check_raises "replace_top empty" Not_found (fun () ->
      Minheap.replace_top h ~key:0.0 0)

let prop_minheap_sorts =
  qtest "Minheap: drain is sorted" QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun l ->
      let h = Minheap.create () in
      List.iteri (fun id x -> Minheap.add h ~key:(float_of_int x) id) l;
      let out =
        List.init (List.length l) (fun _ ->
            let k = Minheap.top_key h in
            Minheap.pop h;
            k)
      in
      out = List.sort compare (List.map float_of_int l))

(* Random interleavings of add, replace_top and pop against a sorted
   list of (key, id) pairs.  Keys come from four values, so most
   comparisons are decided by the id. *)
type heap_op = Add of float * int | Replace of float * int | Pop

let heap_op_gen =
  QCheck2.Gen.(
    let entry = pair (map float_of_int (int_range 0 3)) (int_range 0 20) in
    frequency
      [
        (3, map (fun (k, id) -> Add (k, id)) entry);
        (2, map (fun (k, id) -> Replace (k, id)) entry);
        (2, pure Pop);
      ])

let prop_minheap_model =
  qtest "Minheap: add, replace_top, pop = sorted-list model"
    QCheck2.Gen.(list_size (int_range 0 300) heap_op_gen)
    (fun ops ->
      let h = Minheap.create ~capacity:1 () in
      let on_empty name f =
        match f () with
        | () -> QCheck2.Test.fail_reportf "%s on an empty heap" name
        | exception Not_found -> []
      in
      let step model op =
        let model =
          match (op, model) with
          | Add (k, id), _ ->
              Minheap.add h ~key:k id;
              List.merge compare [ (k, id) ] model
          | Replace (k, id), _ :: rest ->
              Minheap.replace_top h ~key:k id;
              List.merge compare [ (k, id) ] rest
          | Pop, _ :: rest ->
              Minheap.pop h;
              rest
          | Replace (k, id), [] ->
              on_empty "replace_top" (fun () -> Minheap.replace_top h ~key:k id)
          | Pop, [] -> on_empty "pop" (fun () -> Minheap.pop h)
        in
        if Minheap.size h <> List.length model then QCheck2.Test.fail_report "size";
        (match model with
        | (k, id) :: _ ->
            if Minheap.top h <> id || Minheap.top_key h <> k then
              QCheck2.Test.fail_reportf "top (%g, %d) expected, (%g, %d) found" k id
                (Minheap.top_key h) (Minheap.top h)
        | [] -> if not (Minheap.is_empty h) then QCheck2.Test.fail_report "not empty");
        model
      in
      ignore (List.fold_left step [] ops);
      true)

(* --- Splitmix --- *)

module Splitmix = Dp_util.Splitmix

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  let seq t = List.init 100 (fun _ -> Splitmix.next_int64 t) in
  check Alcotest.bool "same seed, same stream" true (seq a = seq b);
  let c = Splitmix.create 43 in
  check Alcotest.bool "different seed, different stream" true (seq (Splitmix.create 42) <> seq c)

let test_splitmix_split_independent () =
  (* A split stream is independent of further draws on the parent. *)
  let parent = Splitmix.create 7 in
  let child = Splitmix.split parent in
  let expected = List.init 50 (fun _ -> Splitmix.next_int64 child) in
  let parent2 = Splitmix.create 7 in
  let child2 = Splitmix.split parent2 in
  List.iter (fun _ -> ignore (Splitmix.next_int64 parent2)) (List.init 25 Fun.id);
  let got = List.init 50 (fun _ -> Splitmix.next_int64 child2) in
  check Alcotest.bool "child stream fixed at split time" true (expected = got)

let prop_splitmix_float_unit =
  qtest "Splitmix: floats in [0,1)" QCheck2.Gen.int (fun seed ->
      let t = Splitmix.create seed in
      List.for_all
        (fun _ ->
          let f = Splitmix.float t in
          f >= 0.0 && f < 1.0)
        (List.init 100 Fun.id))

let prop_splitmix_bool_edges =
  qtest "Splitmix: bool degenerate probabilities" QCheck2.Gen.int (fun seed ->
      let t = Splitmix.create seed in
      List.for_all
        (fun _ -> (not (Splitmix.bool t ~p:0.0)) && Splitmix.bool t ~p:1.0)
        (List.init 50 Fun.id))

let prop_splitmix_int_bound =
  qtest "Splitmix: int within bound" QCheck2.Gen.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Splitmix.create seed in
      List.for_all
        (fun _ ->
          let n = Splitmix.int t ~bound in
          n >= 0 && n < bound)
        (List.init 50 Fun.id))

let test_splitmix_bool_rate_sanity () =
  (* ~10% of draws at p = 0.1, within generous bounds. *)
  let t = Splitmix.create 1234 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Splitmix.bool t ~p:0.1 then incr hits
  done;
  check Alcotest.bool
    (Printf.sprintf "hit rate plausible (%d/10000)" !hits)
    true
    (!hits > 800 && !hits < 1200)

(* --- Json --- *)

let exact f = Json.to_string ~floats:Json.Exact (Json.Float f)

let test_json_exact_floats () =
  (* The old precise mode was %.12g: both of these printed "0.3". *)
  check Alcotest.bool "0.1 + 0.2 differs from 0.3" true (exact (0.1 +. 0.2) <> exact 0.3);
  check Alcotest.bool "-0 differs from 0" true (exact (-0.0) <> exact 0.0);
  check Alcotest.string "integral floats need no patch" "1" (exact 1.0);
  check Alcotest.string "non-finite is null" "null" (exact Float.infinity);
  check Alcotest.string "readable stays %.6g" "0.333333"
    (Json.to_string (Json.Float (1.0 /. 3.0)))

let test_json_parse () =
  let ok s = Result.get_ok (Json.of_string s) in
  check Alcotest.bool "integer literal is Int" true (ok "42" = Json.Int 42);
  check Alcotest.bool "fraction is Float" true (ok "4.5e1" = Json.Float 45.0);
  check Alcotest.bool "-0 stays a float" true
    (match ok "-0" with Json.Float f -> 1.0 /. f = Float.neg_infinity | _ -> false);
  check Alcotest.bool "oversized integer is Float" true
    (match ok "123456789012345678901234" with Json.Float _ -> true | _ -> false);
  check Alcotest.bool "structure and whitespace" true
    (ok " {\"a\" : [ 1 , true , null ] } "
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]) ]);
  check Alcotest.bool "\\u escapes decode to UTF-8" true
    (ok {|"\u00e9\u0001"|} = Json.String "\xc3\xa9\x01");
  List.iter
    (fun (input, offset) ->
      match Json.of_string input with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" input)
      | Error e ->
          check Alcotest.bool
            (Printf.sprintf "%S error names offset %d (%s)" input offset e)
            true
            (String.ends_with ~suffix:(Printf.sprintf "at offset %d" offset) e))
    [ ("not json", 0); ("[1, 2", 5); ("{\"a\" 1}", 5); ("1 2", 2); ("\"x", 2); ("-", 0) ]

let prop_json_exact_roundtrip =
  qtest ~count:2000 "Json: exact floats parse back bit-identical"
    QCheck2.Gen.(map Int64.float_of_bits int64)
    (fun f ->
      QCheck2.assume (Float.is_finite f);
      let back =
        match Json.of_string (Dp_harness.Json_out.to_string_precise (Json.Float f)) with
        | Ok (Json.Float g) -> g
        | Ok (Json.Int i) -> float_of_int i
        | _ -> Float.nan
      in
      Int64.equal (Int64.bits_of_float back) (Int64.bits_of_float f))

let json_gen =
  let open QCheck2.Gen in
  (* Keys and strings mix quotes, backslashes, control and non-ASCII
     bytes: everything the escaper has to get right. *)
  let str =
    string_size ~gen:(oneof [ printable; char_range '\000' '\031'; oneofl [ '"'; '\\'; '\xc3' ] ])
      (int_range 0 6)
  in
  let number =
    oneof
      [
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) float;
        map (fun f -> Json.Float f) (oneofl [ 0.0; -0.0; 1.0; 0.1; 1e21; 5e-324 ]);
      ]
  in
  let leaf =
    oneof [ pure Json.Null; map (fun b -> Json.Bool b) bool; number; map (fun s -> Json.String s) str ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (n / 4))));
               (1, map (fun kv -> Json.Obj kv) (list_size (int_range 0 4) (pair str (self (n / 4)))));
             ])

let prop_json_print_parse_fixed_point =
  qtest "Json: print -> parse -> print is a fixed point" json_gen (fun v ->
      List.for_all
        (fun (print : Json.t -> string) ->
          let s = print v in
          match Json.of_string s with Ok v' -> String.equal (print v') s | Error _ -> false)
        [
          Json.to_string ?floats:None;
          Json.to_string ~floats:Json.Exact;
          Json.to_compact ?floats:None;
          Json.to_compact ~floats:Json.Exact;
        ])

(* Documents shaped for the layout: keys and strings up to past the
   margin, with bytes that escape to several characters; nesting up to
   ten deep, so boxes open past column 68; empty lists and objects. *)
let layout_gen =
  let open QCheck2.Gen in
  let text =
    string_size
      ~gen:(frequency [ (20, char_range 'a' 'z'); (1, oneofl [ '"'; '\\'; '\n'; '\xc3' ]) ])
      (frequency [ (3, int_range 0 12); (1, int_range 0 90) ])
  in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun i -> Json.Int i) (int_range (-999) 99_999);
        map (fun f -> Json.Float f) float;
        map (fun s -> Json.String s) text;
        pure (Json.List []);
        pure (Json.Obj []);
      ]
  in
  sized_size (int_range 0 10)
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (n - 1))));
               ( 1,
                 map
                   (fun kv -> Json.Obj kv)
                   (list_size (int_range 0 4) (pair text (self (n - 1)))) );
             ])

let prop_json_layout =
  qtest ~count:1000 "Json: to_string = Format.asprintf pp, both float modes" layout_gen
    (fun v ->
      List.for_all
        (fun floats -> Json.to_string ~floats v = Format.asprintf "%a" (Json.pp ~floats) v)
        [ Json.Readable; Json.Exact ])

let suites =
  [
    ( "util.rat",
      [
        Alcotest.test_case "normalization" `Quick test_rat_normalization;
        Alcotest.test_case "arithmetic" `Quick test_rat_arith;
        Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
        prop_rat_add_commutes;
        prop_rat_mul_inverse;
        prop_rat_floor_le;
        prop_rat_normal_form;
      ] );
    ( "util.ivec",
      [
        Alcotest.test_case "lexicographic" `Quick test_ivec_lex;
        Alcotest.test_case "arithmetic" `Quick test_ivec_arith;
        prop_ivec_neg_antisym;
        prop_ivec_compare_total;
      ] );
    ( "util.listx",
      [
        Alcotest.test_case "group_by" `Quick test_listx_group_by;
        Alcotest.test_case "misc" `Quick test_listx_misc;
        prop_take_drop;
      ] );
    ( "util.minheap",
      [
        Alcotest.test_case "basic" `Quick test_minheap_basic;
        prop_minheap_sorts;
        prop_minheap_model;
      ] );
    ( "util.splitmix",
      [
        Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
        Alcotest.test_case "split independent" `Quick test_splitmix_split_independent;
        Alcotest.test_case "bool rate sanity" `Quick test_splitmix_bool_rate_sanity;
        prop_splitmix_float_unit;
        prop_splitmix_bool_edges;
        prop_splitmix_int_bound;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "exact floats" `Quick test_json_exact_floats;
        Alcotest.test_case "parse" `Quick test_json_parse;
        prop_json_exact_roundtrip;
        prop_json_print_parse_fixed_point;
        prop_json_layout;
      ] );
  ]
