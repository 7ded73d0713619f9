module Ir = Dp_ir.Ir

type t = {
  arrival : Float.Array.t;
  think : Float.Array.t;
  seg : int array;
  address : int array;
  lba : int array;
  size : int array;
  proc : int array;
  disk : int array;
  mode : Bytes.t;
  procs : int;
  segments : int;
  disks : int;
  finite : bool;
}

let length t = Array.length t.proc
let mode_char = function Ir.Read -> 'R' | Ir.Write -> 'W'
let mode t i = if Bytes.get t.mode i = 'W' then Ir.Write else Ir.Read

(* [Request.compare_arrival] on two requests of one trace. *)
let compare_at t i j =
  match Float.compare (Float.Array.get t.arrival i) (Float.Array.get t.arrival j) with
  | 0 -> (
      match Int.compare t.proc.(i) t.proc.(j) with
      | 0 -> Int.compare t.address.(i) t.address.(j)
      | c -> c)
  | c -> c

(* The trace of requests [idx.(0)], [idx.(1)], ... of [t]. *)
let gather t idx =
  let n = Array.length idx in
  let ints a = Array.init n (fun k -> a.(idx.(k))) in
  {
    t with
    arrival = Float.Array.init n (fun k -> Float.Array.get t.arrival idx.(k));
    think = Float.Array.init n (fun k -> Float.Array.get t.think idx.(k));
    seg = ints t.seg;
    address = ints t.address;
    lba = ints t.lba;
    size = ints t.size;
    proc = ints t.proc;
    disk = ints t.disk;
    mode = Bytes.init n (fun k -> Bytes.get t.mode idx.(k));
  }

(* Columns filled in any order become a trace: one pass records the
   counts and checks the order, and only an out-of-order trace pays for
   a stable sort of its indices. *)
let seal t =
  let n = length t in
  let procs = ref 0 and segments = ref 0 and disks = ref 0 in
  let finite = ref true and sorted = ref true in
  for i = 0 to n - 1 do
    procs := Int.max !procs (t.proc.(i) + 1);
    segments := Int.max !segments (t.seg.(i) + 1);
    disks := Int.max !disks (t.disk.(i) + 1);
    let arrival = Float.Array.get t.arrival i and think = Float.Array.get t.think i in
    if not (Float.is_finite arrival && Float.is_finite think) then finite := false;
    if i > 0 && !sorted && compare_at t (i - 1) i > 0 then sorted := false
  done;
  let t = { t with procs = !procs; segments = !segments; disks = !disks; finite = !finite } in
  if !sorted then t
  else begin
    let idx = Array.init n Fun.id in
    Array.stable_sort (compare_at t) idx;
    gather t idx
  end

let empty =
  {
    arrival = Float.Array.create 0;
    think = Float.Array.create 0;
    seg = [||];
    address = [||];
    lba = [||];
    size = [||];
    proc = [||];
    disk = [||];
    mode = Bytes.empty;
    procs = 0;
    segments = 0;
    disks = 0;
    finite = true;
  }

let get t i : Request.t =
  {
    arrival_ms = Float.Array.get t.arrival i;
    think_ms = Float.Array.get t.think i;
    seg = t.seg.(i);
    address = t.address.(i);
    lba = t.lba.(i);
    size = t.size.(i);
    mode = mode t i;
    proc = t.proc.(i);
    disk = t.disk.(i);
  }

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get t i :: acc) in
  go (length t - 1) []

let map_times f t =
  seal { t with arrival = Float.Array.map f t.arrival; think = Float.Array.map f t.think }

module Builder = struct
  type trace = t

  type t = {
    mutable n : int;
    mutable arrival : Float.Array.t;
    mutable think : Float.Array.t;
    mutable seg : int array;
    mutable address : int array;
    mutable lba : int array;
    mutable size : int array;
    mutable proc : int array;
    mutable disk : int array;
    mutable mode : Bytes.t;
  }

  let create capacity =
    let c = Int.max 1 capacity in
    {
      n = 0;
      arrival = Float.Array.create c;
      think = Float.Array.create c;
      seg = Array.make c 0;
      address = Array.make c 0;
      lba = Array.make c 0;
      size = Array.make c 0;
      proc = Array.make c 0;
      disk = Array.make c 0;
      mode = Bytes.create c;
    }

  (* Every column resized to [c] slots, the first [b.n] kept. *)
  let resize b c =
    let ints a =
      let a' = Array.make c 0 in
      Array.blit a 0 a' 0 b.n;
      a'
    in
    let floats a =
      let a' = Float.Array.create c in
      Float.Array.blit a 0 a' 0 b.n;
      a'
    in
    b.arrival <- floats b.arrival;
    b.think <- floats b.think;
    b.seg <- ints b.seg;
    b.address <- ints b.address;
    b.lba <- ints b.lba;
    b.size <- ints b.size;
    b.proc <- ints b.proc;
    b.disk <- ints b.disk;
    let m = Bytes.create c in
    Bytes.blit b.mode 0 m 0 b.n;
    b.mode <- m

  let[@inline] add b ~arrival ~think ~seg ~address ~lba ~size ~mode ~proc ~disk =
    if b.n = Array.length b.proc then resize b (2 * b.n);
    let i = b.n in
    Float.Array.set b.arrival i arrival;
    Float.Array.set b.think i think;
    b.seg.(i) <- seg;
    b.address.(i) <- address;
    b.lba.(i) <- lba;
    b.size.(i) <- size;
    b.proc.(i) <- proc;
    b.disk.(i) <- disk;
    Bytes.set b.mode i (mode_char mode);
    b.n <- i + 1

  let finish b : trace =
    if b.n < Array.length b.proc then resize b b.n;
    seal
      {
        arrival = b.arrival;
        think = b.think;
        seg = b.seg;
        address = b.address;
        lba = b.lba;
        size = b.size;
        proc = b.proc;
        disk = b.disk;
        mode = b.mode;
        procs = 0;
        segments = 0;
        disks = 0;
        finite = true;
      }
end

let of_list ?(caller = "Trace.of_list") reqs =
  let b = Builder.create (List.length reqs) in
  List.iter
    (fun (r : Request.t) ->
      let negative field v =
        invalid_arg (Printf.sprintf "%s: request with negative %s %d" caller field v)
      in
      if r.proc < 0 then negative "proc" r.proc;
      if r.seg < 0 then negative "seg" r.seg;
      if r.disk < 0 then negative "disk" r.disk;
      Builder.add b ~arrival:r.arrival_ms ~think:r.think_ms ~seg:r.seg ~address:r.address
        ~lba:r.lba ~size:r.size ~mode:r.mode ~proc:r.proc ~disk:r.disk)
    reqs;
  Builder.finish b

let merge = function
  | [| run |] -> run
  | runs ->
      let k = Array.length runs in
      let n = Array.fold_left (fun acc r -> acc + length r) 0 runs in
      (* [src.(i)], [at.(i)]: the run and position output [i] comes from. *)
      let src = Array.make n 0 and at = Array.make n 0 in
      let head = Array.make k 0 in
      for i = 0 to n - 1 do
        let best = ref (-1) in
        for r = 0 to k - 1 do
          if head.(r) < length runs.(r) then
            if
              !best < 0
              || Float.compare
                   (Float.Array.get runs.(r).arrival head.(r))
                   (Float.Array.get runs.(!best).arrival head.(!best))
                 < 0
            then best := r
        done;
        src.(i) <- !best;
        at.(i) <- head.(!best);
        head.(!best) <- head.(!best) + 1
      done;
      let ints col =
        let cs = Array.map col runs and a = Array.make n 0 in
        for i = 0 to n - 1 do
          a.(i) <- cs.(src.(i)).(at.(i))
        done;
        a
      in
      let floats col =
        let cs = Array.map col runs and a = Float.Array.create n in
        for i = 0 to n - 1 do
          Float.Array.set a i (Float.Array.get cs.(src.(i)) at.(i))
        done;
        a
      in
      seal
        {
          arrival = floats (fun r -> r.arrival);
          think = floats (fun r -> r.think);
          seg = ints (fun r -> r.seg);
          address = ints (fun r -> r.address);
          lba = ints (fun r -> r.lba);
          size = ints (fun r -> r.size);
          proc = ints (fun r -> r.proc);
          disk = ints (fun r -> r.disk);
          mode = Bytes.init n (fun i -> Bytes.get runs.(src.(i)).mode at.(i));
          procs = 0;
          segments = 0;
          disks = 0;
          finite = true;
        }
