module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete

type policy = First_ref | Min_disk | Majority

let policy_name = function
  | First_ref -> "first-ref"
  | Min_disk -> "min-disk"
  | Majority -> "majority"

let all_policies = [ First_ref; Min_disk; Majority ]

let key_of_disks policy all_disks =
  match all_disks with
  | [] -> -1
  | first :: _ -> (
      match policy with
      | First_ref -> first
      | Min_disk -> List.fold_left min first all_disks
      | Majority -> (
          match
            Dp_util.Listx.max_by
              (fun (_, group) -> List.length group)
              (Dp_util.Listx.group_by Fun.id all_disks)
          with
          | Some (d, _) -> d
          | None -> first))

type table = { key : int array; disks : int }

let build_table ?(policy = First_ref) layout (prog : Ir.program) (g : Concrete.graph) =
  let nests = Array.of_list prog.Ir.nests in
  let pos = Concrete.nest_positions prog g in
  (* Majority voting looks at every access, so keep duplicates. *)
  let key =
    Array.map
      (fun (inst : Concrete.instance) ->
        Ir.element_accesses nests.(pos.(inst.seq)) inst.iter
        |> List.map (fun ((r : Ir.array_ref), coords) ->
               Layout.disk_of_element layout r.array coords)
        |> key_of_disks policy)
      g.instances
  in
  let disks = Array.fold_left (fun acc k -> max acc (k + 1)) layout.Layout.disk_count key in
  { key; disks }
