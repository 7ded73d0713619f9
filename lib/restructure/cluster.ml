module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete

type policy = First_ref | Min_disk | Majority

let policy_name = function
  | First_ref -> "first-ref"
  | Min_disk -> "min-disk"
  | Majority -> "majority"

let all_policies = [ First_ref; Min_disk; Majority ]

type table = { key : int array; disks : int }

(* The key of an instance whose accesses touch disks [ds.(0 .. n-1)], in
   textual order.  Majority takes the disk with the most accesses, the
   first to appear among equals; [votes] is all zeros between calls. *)
let key_of_disks policy ~votes ds n =
  if n = 0 then -1
  else
    match policy with
    | First_ref -> ds.(0)
    | Min_disk ->
        let m = ref ds.(0) in
        for i = 1 to n - 1 do
          m := Int.min !m ds.(i)
        done;
        !m
    | Majority ->
        for i = 0 to n - 1 do
          votes.(ds.(i)) <- votes.(ds.(i)) + 1
        done;
        let best = ref ds.(0) in
        for i = 1 to n - 1 do
          if votes.(ds.(i)) > votes.(!best) then best := ds.(i)
        done;
        for i = 0 to n - 1 do
          votes.(ds.(i)) <- 0
        done;
        !best

let build_table ?(policy = First_ref) layout (prog : Ir.program) (g : Concrete.graph) =
  let code = Ir.Compiled.compile prog in
  let entries = Array.of_list layout.Layout.entries in
  let width (n : Ir.Compiled.nest) =
    Array.fold_left
      (fun acc (s : Ir.Compiled.stmt) -> acc + Array.length s.accesses)
      0 n.body
  in
  let ds = Array.make (Array.fold_left (fun acc n -> Int.max acc (width n)) 0 code) 0 in
  let votes = Array.make layout.Layout.disk_count 0 in
  let key =
    Array.map
      (fun (inst : Concrete.instance) ->
        let n = ref 0 in
        Array.iter
          (fun (s : Ir.Compiled.stmt) ->
            Array.iter
              (fun (a : Ir.Compiled.access) ->
                let e = entries.(a.array) in
                let disk, _, _ = Layout.locate e (Layout.index e a inst.iter) in
                ds.(!n) <- disk;
                incr n)
              s.accesses)
          code.(inst.nest).body;
        key_of_disks policy ~votes ds !n)
      g.instances
  in
  let disks = Array.fold_left (fun acc k -> max acc (k + 1)) layout.Layout.disk_count key in
  { key; disks }
