type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

type floats = Readable | Exact

let add_escaped b s =
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
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
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

(* [pp]'s layout without [Format].  For hv boxes opened at the current
   column and [",@ "] breaks, [Format.asprintf] (margin 78, maximum
   indentation 68) comes down to three rules, taken in text order:
   - a box that opens past column 68 inside a breaking box opened to
     its left first starts a new line at that box's column (capped at
     68);
   - a box lays out on one line when its one-line text is strictly
     shorter than the space left where it opens, measured before that
     newline: [Format] commits to a pending box as soon as the text it
     holds fills the line;
   - every break of any other box starts a new line at the box's
     column, capped at 68.
   The first pass writes the one-line text and records each box's
   extent and each break; the second copies that text and applies the
   rules. *)
let margin = 78
let max_indent = 68

(* Events in text order, with their positions in the one-line text: a
   box begin holds the index of its end event; [break] and [close] mark
   the others.  A break's position is that of the space it prints as on
   one line. *)
type events = { mutable tag : int array; mutable pos : int array; mutable n : int }

let break = -1
let close = -2

let to_string ?(floats = Readable) t =
  let flat = Buffer.create 4096 in
  let ev = { tag = Array.make 256 0; pos = Array.make 256 0; n = 0 } in
  let event tag =
    if ev.n = Array.length ev.tag then begin
      let grow a = Array.append a (Array.make ev.n 0) in
      ev.tag <- grow ev.tag;
      ev.pos <- grow ev.pos
    end;
    ev.tag.(ev.n) <- tag;
    ev.pos.(ev.n) <- Buffer.length flat;
    ev.n <- ev.n + 1
  in
  let rec add = function
    | List xs ->
        Buffer.add_char flat '[';
        box (fun i x -> if i > 0 then sep (); add x) xs;
        Buffer.add_char flat ']'
    | Obj fields ->
        Buffer.add_char flat '{';
        box
          (fun i (k, v) ->
            if i > 0 then sep ();
            Buffer.add_char flat '"';
            add_escaped flat k;
            Buffer.add_string flat "\": ";
            add v)
          fields;
        Buffer.add_char flat '}'
    | String s ->
        Buffer.add_char flat '"';
        add_escaped flat s;
        Buffer.add_char flat '"'
    | v -> Buffer.add_string flat (scalar floats v)
  and box : 'a. (int -> 'a -> unit) -> 'a list -> unit =
   fun item items ->
    let b = ev.n in
    event 0;
    List.iteri item items;
    ev.tag.(b) <- ev.n;
    event close
  and sep () =
    Buffer.add_char flat ',';
    event break;
    Buffer.add_char flat ' '
  in
  add t;
  let s = Buffer.contents flat in
  let out = Buffer.create (String.length s + (String.length s / 4)) in
  let col = ref 0 and copied = ref 0 in
  let copy upto =
    Buffer.add_substring out s !copied (upto - !copied);
    col := !col + upto - !copied;
    copied := upto
  in
  let newline indent =
    Buffer.add_char out '\n';
    for _ = 1 to indent do
      Buffer.add_char out ' '
    done;
    col := indent
  in
  (* The columns of the open breaking boxes, innermost first, above the
     formatter's own box at column 0. *)
  let boxes = ref [ 0 ] in
  let e = ref 0 in
  while !e < ev.n do
    let tag = ev.tag.(!e) and p = ev.pos.(!e) in
    if tag >= 0 then begin
      copy p;
      let fits = ev.pos.(tag) - p < margin - !col in
      let parent = List.hd !boxes in
      if !col > max_indent && !col > parent then newline (Int.min max_indent parent);
      if fits then begin
        copy ev.pos.(tag);
        e := tag + 1
      end
      else begin
        boxes := !col :: !boxes;
        incr e
      end
    end
    else begin
      if tag = break then begin
        copy p;
        copied := p + 1;
        newline (Int.min max_indent (List.hd !boxes))
      end
      else boxes := List.tl !boxes;
      incr e
    end
  done;
  copy (String.length s);
  Buffer.contents out

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
