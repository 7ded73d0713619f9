module Concrete = Dp_dependence.Concrete
module Minheap = Dp_util.Minheap

type schedule = { order : int array; rounds : int; visits : (int * int) list }

(* Semantics of one disk visit, mirroring the Omega-based algorithm of
   Fig. 3: the set of schedulable iterations is computed when the visit
   starts (Q_di restricted to satisfied dependences), then enumerated in
   original execution order.  An iteration whose dependence is satisfied
   {e during} the visit joins the set only when the dependence is
   intra-nest (the generated loop nest enumerates a nest's iterations in
   original order, so such dependences are honored by construction);
   iterations released by another nest — or by another disk's iterations
   — must wait for the next visit (Fig. 4: iteration 7 waits for the
   second round even though its predecessor 6 ran in the first). *)

let schedule_parts (table : Cluster.table) (g : Concrete.graph) ~part ~start_disks =
  Dp_obs.Prof.span "restructure.reuse-schedule" @@ fun () ->
  let n = Concrete.instance_count g in
  let parts = Array.length start_disks in
  if Array.length part <> n || Array.length table.Cluster.key <> n then
    invalid_arg
      "Reuse_scheduler.schedule_parts: part map or table does not match the graph";
  let disk_count = table.Cluster.disks in
  (* One pass: part sizes, indegrees counting only edges inside a part,
     and each part's initially ready instances. *)
  let size = Array.make parts 0 in
  let indegree = Array.make n 0 in
  let sources = Array.make parts [] in
  for seq = 0 to n - 1 do
    let p = part.(seq) in
    if p >= parts then
      invalid_arg (Printf.sprintf "Reuse_scheduler.schedule_parts: part %d >= %d" p parts);
    if p >= 0 then begin
      size.(p) <- size.(p) + 1;
      Array.iter
        (fun src -> if part.(src) = p then indegree.(seq) <- indegree.(seq) + 1)
        g.preds.(seq);
      if indegree.(seq) = 0 then sources.(p) <- seq :: sources.(p)
    end
  done;
  (* Bucket 0: compute-only instances; bucket d+1: disk d.  [staged]
     holds instances that became ready since the disk's visit started;
     [active] is the frozen visit set (refilled from [staged] when a new
     visit begins).  A part ends with every heap drained, so the parts
     share one set of heaps.  Every entry has the same key, so a heap
     yields its instances in original execution order. *)
  let staged = Array.init (disk_count + 1) (fun _ -> Minheap.create ()) in
  let active = Array.init (disk_count + 1) (fun _ -> Minheap.create ()) in
  let push h seq = Minheap.add h ~key:0.0 seq in
  let take h =
    let seq = Minheap.top h in
    Minheap.pop h;
    seq
  in
  let bucket_of seq =
    let k = table.Cluster.key.(seq) in
    if k < 0 then 0 else k + 1
  in
  let schedule_part p =
    List.iter (fun seq -> push staged.(bucket_of seq) seq) sources.(p);
    let order = Array.make size.(p) (-1) in
    let scheduled = ref 0 in
    let visits = ref [] in
    (* The disk the current visit is emitting; used to decide whether a
       newly released instance may chain into the visit. *)
    let current_visit_disk = ref (-1) in
    let release ~from_nest seq =
      Array.iter
        (fun dst ->
          if part.(dst) = p then begin
            indegree.(dst) <- indegree.(dst) - 1;
            if indegree.(dst) = 0 then begin
              let b = bucket_of dst in
              let same_nest = g.Concrete.instances.(dst).Concrete.nest_id = from_nest in
              if b = 0 then push staged.(0) dst
              else if b - 1 = !current_visit_disk && same_nest then push active.(b) dst
              else push staged.(b) dst
            end
          end)
        g.succs.(seq)
    in
    let emit seq =
      order.(!scheduled) <- seq;
      incr scheduled;
      release ~from_nest:g.Concrete.instances.(seq).Concrete.nest_id seq
    in
    (* Compute-only instances are transparent to disk power: drain them
       as soon as they are ready. *)
    let drain_compute_only () =
      let c = ref 0 in
      while not (Minheap.is_empty staged.(0)) do
        emit (take staged.(0));
        incr c
      done;
      !c
    in
    let rounds = ref 0 in
    while !scheduled < size.(p) do
      incr rounds;
      for dd = 0 to disk_count - 1 do
        let d = (start_disks.(p) + dd) mod disk_count in
        current_visit_disk := d;
        let in_visit = ref (drain_compute_only ()) in
        (* Freeze the visit set: everything staged before the visit. *)
        while not (Minheap.is_empty staged.(d + 1)) do
          push active.(d + 1) (take staged.(d + 1))
        done;
        while not (Minheap.is_empty active.(d + 1)) do
          emit (take active.(d + 1));
          incr in_visit;
          in_visit := !in_visit + drain_compute_only ()
        done;
        current_visit_disk := -1;
        if !in_visit > 0 then visits := (d, !in_visit) :: !visits
      done
    done;
    Dp_obs.Prof.count "restructure.reuse-schedule" !rounds;
    { order; rounds = !rounds; visits = List.rev !visits }
  in
  Array.init parts schedule_part

let schedule ?(start_disk = 0) table g =
  (schedule_parts table g
     ~part:(Array.make (Concrete.instance_count g) 0)
     ~start_disks:[| start_disk |]).(0)

let disk_switches (table : Cluster.table) order =
  let last = ref (-1) and switches = ref 0 in
  Array.iter
    (fun seq ->
      let k = table.Cluster.key.(seq) in
      if k >= 0 then begin
        if !last >= 0 && k <> !last then incr switches;
        last := k
      end)
    order;
  !switches
