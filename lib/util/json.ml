type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

type floats = Readable | Exact

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* [%.17g] is exact and injective on finite doubles; searching for the
   shortest round-tripping digit string costs measurable chaos time for
   no extra information. *)
let float_string floats f =
  if not (Float.is_finite f) then "null"
  else
    match floats with
    | Readable -> Printf.sprintf "%.6g" f
    | Exact -> Printf.sprintf "%.17g" f

(* The text of a scalar; containers are the layouts' business. *)
let scalar floats = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f -> float_string floats f
  | String s -> String.concat "" [ "\""; escape s; "\"" ]
  | List _ | Obj _ -> invalid_arg "Json.scalar"

(* --- the pretty layout: Format boxes, "k": v --- *)

let comma ppf () = Format.fprintf ppf ",@ "

let rec pp_with floats ppf = function
  | List xs ->
      Format.fprintf ppf "[@[<hv>%a@]]" (Format.pp_print_list ~pp_sep:comma (pp_with floats)) xs
  | Obj fields ->
      let field ppf (k, v) = Format.fprintf ppf "\"%s\": %a" (escape k) (pp_with floats) v in
      Format.fprintf ppf "{@[<hv>%a@]}" (Format.pp_print_list ~pp_sep:comma field) fields
  | v -> Format.pp_print_string ppf (scalar floats v)

let pp ?(floats = Readable) ppf t = pp_with floats ppf t
let to_string ?floats t = Format.asprintf "%a" (pp ?floats) t

(* --- the compact layout: no whitespace, straight into a buffer --- *)

let to_compact ?(floats = Readable) t =
  let b = Buffer.create 256 in
  let rec add = function
    | List xs -> items '[' ']' (List.map (fun x () -> add x) xs)
    | Obj fields ->
        let field (k, v) () = add (String k); Buffer.add_char b ':'; add v in
        items '{' '}' (List.map field fields)
    | v -> Buffer.add_string b (scalar floats v)
  and items opening closing adders =
    Buffer.add_char b opening;
    List.iteri (fun i add_item -> if i > 0 then Buffer.add_char b ','; add_item ()) adders;
    Buffer.add_char b closing
  in
  add t;
  Buffer.contents b

(* --- parser --- *)

exception Bad of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek_at k = if !pos + k < n then s.[!pos + k] else '\x00' in
  let peek () = peek_at 0 in
  let skip_while chars = while !pos < n && String.contains chars s.[!pos] do incr pos done in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail ("expected " ^ word)
  in
  let hex4 () =
    match if !pos + 4 <= n then int_of_string_opt ("0x" ^ String.sub s !pos 4) else None with
    | Some code -> pos := !pos + 4; code
    | None -> fail "bad \\u escape"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | _ when !pos >= n -> fail "unterminated string"
      | '"' -> incr pos; Buffer.contents b
      | '\\' when peek_at 1 = 'u' ->
          pos := !pos + 2;
          (* Surrogates are rejected: no artifact escapes beyond the BMP. *)
          let code = hex4 () in
          if not (Uchar.is_valid code) then fail "bad \\u escape";
          Buffer.add_utf_8_uchar b (Uchar.of_int code);
          go ()
      | '\\' -> (
          incr pos;
          match String.index_opt "\"\\/bfnrt" (peek ()) with
          | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]; incr pos; go ()
          | _ -> fail "bad escape")
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ()
  in
  (* A number is the longest run of number characters; integer literals
     that fit become [Int], except [-0], which only a float can be. *)
  let number () =
    let start = !pos in
    skip_while "0123456789+-.eE";
    let lexeme = String.sub s start (!pos - start) in
    match (int_of_string_opt lexeme, float_of_string_opt lexeme) with
    | Some i, _ when lexeme <> "-0" -> Int i
    | _, Some f -> Float f
    | _ -> pos := start; fail "bad number"
  in
  let rec value () =
    skip_while " \t\n\r";
    match peek () with
    | '{' ->
        Obj
          (seq '}' (fun () ->
               skip_while " \t\n\r";
               let k = string_lit () in
               skip_while " \t\n\r";
               expect ':';
               (k, value ())))
    | '[' -> List (seq ']' value)
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ when !pos >= n -> fail "unexpected end of input"
    | _ -> number ()
  (* The members of an object or array; the opening bracket is next. *)
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun closing item ->
    incr pos;
    skip_while " \t\n\r";
    if peek () = closing then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_while " \t\n\r";
        match peek () with
        | ',' -> incr pos; go acc
        | c when c = closing -> incr pos; List.rev acc
        | _ -> fail (Printf.sprintf "expected , or %c" closing)
      in
      go []
  in
  match
    let v = value () in
    skip_while " \t\n\r";
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
