module Ir = Dp_ir.Ir

type entry = { decl : Ir.array_decl; striping : Striping.t; base : int }
type t = { entries : entry list; disk_count : int }

let make ?(default = Striping.default) ?(overrides = []) (prog : Ir.program) =
  List.iter
    (fun (name, _) ->
      if Ir.find_array prog name = None then
        invalid_arg (Printf.sprintf "Layout.make: override for unknown array %s" name))
    overrides;
  let next = ref 0 in
  let entries =
    List.map
      (fun (decl : Ir.array_decl) ->
        let striping =
          Option.value ~default (List.assoc_opt decl.name overrides)
        in
        (* Align each file's base so its stripe 0 begins a fresh stripe
           row; addresses within the file are file offsets plus base. *)
        let width = striping.Striping.unit_bytes * striping.Striping.factor in
        let base = (!next + width - 1) / width * width in
        next := base + Ir.array_bytes decl;
        { decl; striping; base })
      prog.arrays
  in
  let disk_count =
    List.fold_left (fun acc e -> max acc e.striping.Striping.factor) 1 entries
  in
  { entries; disk_count }

let find t name =
  match List.find_opt (fun e -> e.decl.Ir.name = name) t.entries with
  | Some e -> e
  | None -> raise Not_found

exception Out_of_bounds of { array : string; dim : int; coord : int; extent : int }

(* The one bounds check: coordinate [c] of dimension [dim]. *)
let coord e dim extent c =
  if c < 0 || c >= extent then
    raise (Out_of_bounds { array = e.decl.Ir.name; dim; coord = c; extent });
  c

let rec index_from e (a : Ir.Compiled.access) iter dim acc = function
  | [] -> acc
  | extent :: rest ->
      let c = coord e dim extent (Ir.Compiled.eval a.subscripts.(dim) iter) in
      index_from e a iter (dim + 1) ((acc * extent) + c) rest

let index e a iter = index_from e a iter 0 0 e.decl.Ir.dims

let linear_index e coords =
  let dims = e.decl.Ir.dims in
  if List.length coords <> List.length dims then
    invalid_arg "Layout.linear_index: arity mismatch";
  let _, lin =
    List.fold_left2
      (fun (dim, acc) c extent -> (dim + 1, (acc * extent) + coord e dim extent c))
      (0, 0) coords dims
  in
  lin

let locate e index =
  let s = e.striping in
  let unit = s.Striping.unit_bytes in
  let file_offset = index * e.decl.Ir.elem_size in
  ( Striping.disk_of_offset s file_offset,
    e.base + file_offset,
    (e.base / s.Striping.factor) + (file_offset / unit / s.Striping.factor * unit)
    + (file_offset mod unit) )

let element_file_offset t name coords =
  let e = find t name in
  linear_index e coords * e.decl.Ir.elem_size

let element_address t name coords =
  let e = find t name in
  let _, address, _ = locate e (linear_index e coords) in
  address

let disk_of_element t name coords =
  let e = find t name in
  let disk, _, _ = locate e (linear_index e coords) in
  disk

let request_of_element t name coords =
  let e = find t name in
  let disk, address, _ = locate e (linear_index e coords) in
  (disk, address, e.decl.Ir.elem_size)

let lba_of_element t name coords =
  let e = find t name in
  let _, _, lba = locate e (linear_index e coords) in
  lba

let elements_per_stripe t name =
  let e = find t name in
  max 1 (e.striping.Striping.unit_bytes / e.decl.Ir.elem_size)

let disk_of_address t addr =
  let e =
    match
      List.find_opt
        (fun e -> addr >= e.base && addr < e.base + Ir.array_bytes e.decl)
        t.entries
    with
    | Some e -> e
    | None -> raise Not_found
  in
  Striping.disk_of_offset e.striping (addr - e.base)

let pp ppf t =
  Format.fprintf ppf "@[<v>%d I/O node(s)@," t.disk_count;
  List.iter
    (fun e ->
      Format.fprintf ppf "%s: base=%d, %a@," e.decl.Ir.name e.base Striping.pp e.striping)
    t.entries;
  Format.fprintf ppf "@]"
