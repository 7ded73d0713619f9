module Ir = Dp_ir.Ir
module Fault_model = Dp_faults.Fault_model

let magic = "DPTB"
let format_version = 1
let default_chunk_bytes = 65536

(* A chunk length beyond this (a thousand default chunks) is framing
   corruption, reported as a bad length rather than as a truncation. *)
let max_chunk_bytes = 1 lsl 26

type error = { file : string; offset : int; msg : string }

let error_to_string e = Printf.sprintf "%s:%d: %s" e.file e.offset e.msg

let to_load_error (e : error) : Request.load_error =
  { file = e.file; line = e.offset; msg = e.msg }

(* Record tags: kind in the high nibble, per-kind flags in the low one. *)
let kind_request = 1 (* flags: bit0 write, bit1 arrival raw, bit2 think raw *)
let kind_compact = 2 (* flags: bit0 address/lba exactly as predicted *)
let kind_hint = 3 (* flags: bits0-1 action (D/U/S), bit2 at raw, bit3 lead raw *)
let kind_fault = 4

(* Scales for the opportunistic divide-before-varint trick below: timestamps
   are deltas of thousandths of a millisecond (whole-ms steps divide by
   1000), addresses step in stripe-unit multiples. *)
let time_scale = 1000
let addr_scale = 1024

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

let put_u b v =
  let v = ref v in
  while !v land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char b (Char.chr !v)

let put_s b v = put_u b (zigzag v)

(* Signed varint with one spare bit marking "value divided by [scale]":
   exact multiples (the overwhelmingly common case for sequential address
   deltas and whole-ms time deltas) shrink by ~10 bits. *)
let put_scaled b ~scale v =
  if v mod scale = 0 then put_u b ((zigzag (v / scale) lsl 1) lor 1)
  else put_u b (zigzag v lsl 1)

(* A float is stored as a delta of thousandths-of-ms only when that integer
   reproduces its exact bits on decode — true for every value the text
   format's %.3f rendering parses back, since both are correctly rounded
   images of the same rational k/1000.  Anything else keeps raw bits. *)
let thousandths x =
  let k = Float.round (x *. 1000.0) in
  if Float.is_finite k && Float.abs k <= 4.5e15 then begin
    let i = int_of_float k in
    if Int64.bits_of_float (float_of_int i /. 1000.0) = Int64.bits_of_float x then Some i
    else None
  end
  else None

(* The float [%.3f] prints and reads back.  [y = x *. 1000.] is within
   [|y| *. epsilon_float] of the exact product, so unless that product
   sits near a half, rounding [y] picks the integer [%.3f] rounds the
   exact [x] to, and [r /. 1000.] is the correctly rounded image of that
   decimal, exactly what [float_of_string] returns.  Near-halves (where
   [%.3f] rounds the exact binary value), products too large for [r] to
   be exact and non-finite values keep the printf round trip. *)
let q3 x =
  let y = x *. 1000.0 in
  let r = Float.round y in
  if
    Float.abs y < 4.5e15
    && Float.abs (Float.abs (y -. r) -. 0.5) > 2.0 *. Float.abs y *. epsilon_float
  then Float.copy_sign (r /. 1000.0) x
  else float_of_string (Printf.sprintf "%.3f" x)

let quantize t = Trace.map_times q3 t

let quantize_hint (h : Hint.t) =
  let action =
    match h.action with Hint.Pre_spin_up lead -> Hint.Pre_spin_up (q3 lead) | a -> a
  in
  { h with at_ms = q3 h.at_ms; action }

(* Stream contexts, shared verbatim by encoder and decoder so deltas
   cancel.  A generated trace interleaves a few logical streams per
   (proc, disk) — e.g. two input arrays and an output array rotating in
   one loop body — and each stream is individually regular: constant
   address stride, repeated think/seg/mode, periodic arrivals.  Each
   (proc, disk) pair therefore keeps TWO contexts in MRU order; a tag
   bit says which one a record was coded against, so alternating
   streams keep hitting their own predictor.  Arrivals are predicted
   second-order (last arrival + last inter-arrival), so a steady rhythm
   encodes as zero. *)
type ctx = {
  mutable last_addr : int;
  mutable stride_addr : int;
  mutable last_lba : int;
  mutable stride_lba : int;
  mutable last_size : int;
  mutable prev_think : int; (* thousandths *)
  mutable prev_seg : int;
  mutable prev_mode : Ir.access_mode;
  mutable prev_arr : int; (* thousandths *)
  mutable prev_arr_d : int; (* last inter-arrival, thousandths *)
  mutable fresh : bool;
}

type slot = { mutable front : ctx; mutable back : ctx } (* MRU order *)

(* The slots are found by (proc, disk).  Ids below [dense_ids] index a
   dense table: a row of slots per proc, each grown to the largest disk
   seen.  Other ids (huge ones in a corrupt file, or the negative ones a
   nine-byte varint decodes to, which the record then refuses) fall back
   to a table keyed with a monomorphic hash and equality, probed with one
   reused mutable key.  Either way a record that finds its slot
   allocates nothing, and a pair always lands in the same place, so the
   encoder and the decoder see the same contexts. *)
let dense_ids = 1024

type pair = { mutable proc : int; mutable disk : int }

module Slots = Hashtbl.Make (struct
  type t = pair

  let equal a b = a.proc = b.proc && a.disk = b.disk
  let hash k = ((k.proc * 65599) + k.disk) land max_int
end)

type predictors = {
  mutable prev_hint_at : int;
  mutable dense : slot array array;  (* by proc, then disk; [vacant] until seen *)
  probe : pair;
  slots : slot Slots.t;
}

let fresh_ctx () =
  {
    last_addr = 0;
    stride_addr = 0;
    last_lba = 0;
    stride_lba = 0;
    last_size = 0;
    prev_think = 0;
    prev_seg = 0;
    prev_mode = Ir.Read;
    prev_arr = 0;
    prev_arr_d = 0;
    fresh = true;
  }

let fresh_slot () = { front = fresh_ctx (); back = fresh_ctx () }

(* The empty cell of a dense row: compared by address, never coded against. *)
let vacant = fresh_slot ()

let predictors () =
  {
    prev_hint_at = 0;
    dense = [||];
    probe = { proc = 0; disk = 0 };
    slots = Slots.create 64;
  }

(* [a] with at least [n] cells (capped at [dense_ids]), new ones [x]. *)
let grown a n x =
  let m = Int.min dense_ids (Int.max n (2 * Array.length a)) in
  let a' = Array.make m x in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let new_slot p proc disk =
  if proc >= 0 && proc < dense_ids && disk >= 0 && disk < dense_ids then begin
    if proc >= Array.length p.dense then p.dense <- grown p.dense (proc + 1) [||];
    if disk >= Array.length p.dense.(proc) then
      p.dense.(proc) <- grown p.dense.(proc) (disk + 1) vacant;
    let s = fresh_slot () in
    p.dense.(proc).(disk) <- s;
    s
  end
  else begin
    p.probe.proc <- proc;
    p.probe.disk <- disk;
    match Slots.find p.slots p.probe with
    | s -> s
    | exception Not_found ->
        let s = fresh_slot () in
        Slots.add p.slots { proc; disk } s;
        s
  end

let[@inline] slot_of p proc disk =
  if proc >= 0 && proc < Array.length p.dense then begin
    let row = p.dense.(proc) in
    if disk >= 0 && disk < Array.length row then begin
      let s = row.(disk) in
      if s != vacant then s else new_slot p proc disk
    end
    else new_slot p proc disk
  end
  else new_slot p proc disk

let pick slot index = if index = 0 then slot.front else slot.back

let touch slot index =
  if index = 1 then begin
    let c = slot.back in
    slot.back <- slot.front;
    slot.front <- c
  end

let predict_arr c = c.prev_arr + c.prev_arr_d

(* A context learns an arrival or think time only when it was coded as
   thousandths (see [thousandths]); a raw-bits timestamp leaves its
   predictor as it was. *)
let ctx_arrival c a =
  c.prev_arr_d <- a - c.prev_arr;
  c.prev_arr <- a

let ctx_update c ~address ~lba ~size ~seg ~mode =
  c.stride_addr <- (if c.fresh then size else address - c.last_addr);
  c.stride_lba <- (if c.fresh then size else lba - c.last_lba);
  c.last_addr <- address;
  c.last_lba <- lba;
  c.last_size <- size;
  c.prev_seg <- seg;
  c.prev_mode <- mode;
  c.fresh <- false

(* {1 Encoding} *)

(* Records accumulate in [chunk]; a full chunk is framed into [out], the
   whole encoding. *)
type enc = {
  out : Buffer.t;
  chunk : Buffer.t;
  chunk_bytes : int;
  mutable nrecords : int;
  p : predictors;
}

let flush_chunk e =
  if Buffer.length e.chunk > 0 then begin
    let payload = Buffer.contents e.chunk in
    Buffer.clear e.chunk;
    Buffer.add_char e.out 'C';
    Buffer.add_int32_le e.out (Int32.of_int (String.length payload));
    Buffer.add_string e.out payload;
    Buffer.add_string e.out (Digest.string payload)
  end

let end_record e =
  e.nrecords <- e.nrecords + 1;
  if Buffer.length e.chunk >= e.chunk_bytes then flush_chunk e

let add_raw_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let len_u v =
  let rec go v n = if v land lnot 0x7f = 0 then n else go (v lsr 7) (n + 1) in
  go v 1

let len_scaled ~scale v =
  if v mod scale = 0 then len_u ((zigzag (v / scale) lsl 1) lor 1)
  else len_u (zigzag v lsl 1)

(* Encoded bytes this request would cost against context [c] (excluding
   the fields whose size does not depend on the context). *)
let ctx_cost c (t : Trace.t) i ~arr ~think =
  let d_addr = t.address.(i) - (c.last_addr + c.stride_addr) in
  let d_lba = t.lba.(i) - (c.last_lba + c.stride_lba) in
  let d_size = t.size.(i) - c.last_size in
  let compact =
    (match (arr, think) with Some _, Some k -> k = c.prev_think | _ -> false)
    && t.seg.(i) = c.prev_seg && Trace.mode t i = c.prev_mode && d_size = 0
  in
  let arr_len =
    match arr with
    | Some a -> len_scaled ~scale:time_scale (a - predict_arr c)
    | None -> 8
  in
  let addr_len =
    if compact && d_addr = 0 && d_lba = 0 then 0
    else len_scaled ~scale:addr_scale d_addr + len_scaled ~scale:addr_scale d_lba
  in
  let rest_len =
    if compact then 0
    else
      (match think with
      | Some t -> len_scaled ~scale:time_scale (t - c.prev_think)
      | None -> 8)
      + len_u (zigzag (t.seg.(i) - c.prev_seg))
      + len_scaled ~scale:addr_scale d_size
  in
  (arr_len + addr_len + rest_len, compact)

let add_request e (t : Trace.t) i =
  let b = e.chunk in
  let proc = t.proc.(i) and disk = t.disk.(i) in
  let address = t.address.(i) and lba = t.lba.(i) and size = t.size.(i) in
  let seg = t.seg.(i) and mode = Trace.mode t i in
  let arrival_ms = Float.Array.get t.arrival i and think_ms = Float.Array.get t.think i in
  let slot = slot_of e.p proc disk in
  let arr = thousandths arrival_ms in
  let think = thousandths think_ms in
  let cost0 = ctx_cost slot.front t i ~arr ~think in
  let cost1 = ctx_cost slot.back t i ~arr ~think in
  let index = if fst cost1 < fst cost0 then 1 else 0 in
  let c = pick slot index in
  let compact = snd (if index = 0 then cost0 else cost1) in
  let d_addr = address - (c.last_addr + c.stride_addr) in
  let d_lba = lba - (c.last_lba + c.stride_lba) in
  (if compact then begin
     let a = Option.get arr in
     let zero = d_addr = 0 && d_lba = 0 in
     Buffer.add_char b
       (Char.chr ((kind_compact lsl 4) lor (if zero then 1 else 0) lor (index lsl 1)));
     put_u b proc;
     put_u b disk;
     put_scaled b ~scale:time_scale (a - predict_arr c);
     if not zero then begin
       put_scaled b ~scale:addr_scale d_addr;
       put_scaled b ~scale:addr_scale d_lba
     end
   end
   else begin
     let flags =
       (match mode with Ir.Write -> 1 | Ir.Read -> 0)
       lor (if arr = None then 2 else 0)
       lor (if think = None then 4 else 0)
       lor (index lsl 3)
     in
     Buffer.add_char b (Char.chr ((kind_request lsl 4) lor flags));
     put_u b proc;
     put_u b disk;
     (match arr with
     | Some a -> put_scaled b ~scale:time_scale (a - predict_arr c)
     | None -> add_raw_float b arrival_ms);
     (match think with
     | Some k -> put_scaled b ~scale:time_scale (k - c.prev_think)
     | None -> add_raw_float b think_ms);
     put_s b (seg - c.prev_seg);
     put_scaled b ~scale:addr_scale d_addr;
     put_scaled b ~scale:addr_scale d_lba;
     put_scaled b ~scale:addr_scale (size - c.last_size)
   end);
  (match arr with Some a -> ctx_arrival c a | None -> ());
  (match think with Some k -> c.prev_think <- k | None -> ());
  ctx_update c ~address ~lba ~size ~seg ~mode;
  touch slot index;
  end_record e

let add_hint e (h : Hint.t) =
  let b = e.chunk in
  let p = e.p in
  let at = thousandths h.at_ms in
  let action_code, lead, rpm =
    match h.action with
    | Hint.Spin_down -> (0, None, None)
    | Hint.Pre_spin_up l -> (1, Some l, None)
    | Hint.Set_rpm r -> (2, None, Some r)
  in
  let lead_k = Option.map thousandths lead in
  let flags =
    action_code
    lor (if at = None then 4 else 0)
    lor if lead_k = Some None then 8 else 0
  in
  Buffer.add_char b (Char.chr ((kind_hint lsl 4) lor flags));
  put_u b h.disk;
  (match at with
  | Some a ->
      put_scaled b ~scale:time_scale (a - p.prev_hint_at);
      p.prev_hint_at <- a
  | None -> add_raw_float b h.at_ms);
  (match (lead, lead_k) with
  | Some _, Some (Some k) -> put_scaled b ~scale:time_scale k
  | Some l, _ -> add_raw_float b l
  | None, _ -> ());
  (match rpm with Some r -> put_u b r | None -> ());
  end_record e

let add_fault e (f : Fault_model.t) =
  let b = e.chunk in
  let spec = Fault_model.to_spec f in
  Buffer.add_char b (Char.chr (kind_fault lsl 4));
  put_u b (String.length spec);
  Buffer.add_string b spec;
  end_record e

let encode ?(chunk_bytes = default_chunk_bytes) ?rounds ?(hints = []) ?faults trace =
  if chunk_bytes < 1 then invalid_arg "Trace.Bin: chunk_bytes must be >= 1";
  let out = Buffer.create 4096 in
  Buffer.add_string out magic;
  Buffer.add_char out (Char.chr format_version);
  (match rounds with
  | None -> Buffer.add_char out '\000'
  | Some n ->
      if n < 0 then invalid_arg "Trace.Bin: rounds must be >= 0";
      Buffer.add_char out '\001';
      put_u out n);
  let chunk = Buffer.create (chunk_bytes + 256) in
  let e = { out; chunk; chunk_bytes; nrecords = 0; p = predictors () } in
  for i = 0 to Trace.length trace - 1 do
    add_request e trace i
  done;
  List.iter (add_hint e) hints;
  Option.iter (add_fault e) faults;
  flush_chunk e;
  Buffer.add_char out 'E';
  put_u out e.nrecords;
  Buffer.contents out

let save ?hints ?faults path trace =
  let s = encode ?hints ?faults trace in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* {1 Decoding} *)

exception Fail of error

(* The one cursor over an encoded trace.  [lim] bounds it: the end of the
   current chunk's payload inside a chunk, the end of the input between
   chunks.  [pos] is a byte offset into the input, so it is also the
   offset a diagnostic reports. *)
type cur = { s : string; file : string; mutable pos : int; mutable lim : int }

let fail c offset fmt =
  Printf.ksprintf (fun msg -> raise (Fail { file = c.file; offset; msg })) fmt

let[@inline] get_byte c what =
  if c.pos >= c.lim then fail c c.pos "truncated record: %s runs past chunk end" what;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

(* A top-level loop, so reading a field allocates no closure. *)
let rec get_u_from c what shift acc =
  if shift > 62 then fail c c.pos "malformed %s: varint too long" what;
  let b = get_byte c what in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 <> 0 then get_u_from c what (shift + 7) acc else acc

(* A one-byte varint, the common case, is read here; anything else,
   errors included, by the loop. *)
let[@inline] get_u c what =
  let pos = c.pos in
  if pos < c.lim then begin
    let b = Char.code c.s.[pos] in
    if b < 0x80 then begin
      c.pos <- pos + 1;
      b
    end
    else get_u_from c what 0 0
  end
  else get_u_from c what 0 0

let[@inline] get_s c what = unzigzag (get_u c what)

let[@inline] get_scaled c ~scale what =
  let u = get_u c what in
  if u land 1 = 1 then unzigzag (u lsr 1) * scale else unzigzag (u lsr 1)

let[@inline] get_raw_float c what =
  if c.pos + 8 > c.lim then fail c c.pos "truncated record: %s runs past chunk end" what;
  let v = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

(* Ids are non-negative.  A nine-byte varint, or a segment delta, can
   decode below zero: the record is refused at its tag's offset. *)
let[@inline] check_id c ~at what v =
  if v < 0 then fail c at "bad %s %d (expected a non-negative integer)" what v

(* A decoded request: its ids checked at the record's offset [at], then
   appended to the trace being built, the times stored unboxed. *)
let[@inline] append_request c b ~at ~arrival ~think ~seg ~address ~lba ~size ~mode ~proc
    ~disk =
  check_id c ~at "proc" proc;
  check_id c ~at "disk" disk;
  check_id c ~at "seg" seg;
  let i = Trace.Builder.push b ~seg ~address ~lba ~size ~mode ~proc ~disk in
  Float.Array.set b.Trace.Builder.arrival i arrival;
  Float.Array.set b.Trace.Builder.think i think

let decode_request cu p b ~at ~flags =
  let proc = get_u cu "request proc" in
  let disk = get_u cu "request disk" in
  let slot = slot_of p proc disk in
  let index = (flags lsr 3) land 1 in
  let c = pick slot index in
  let arrival =
    if flags land 2 = 0 then begin
      let a = predict_arr c + get_scaled cu ~scale:time_scale "request arrival" in
      ctx_arrival c a;
      float_of_int a /. 1000.0
    end
    else get_raw_float cu "request arrival"
  in
  let think =
    if flags land 4 = 0 then begin
      let t = c.prev_think + get_scaled cu ~scale:time_scale "request think" in
      c.prev_think <- t;
      float_of_int t /. 1000.0
    end
    else get_raw_float cu "request think"
  in
  let seg = c.prev_seg + get_s cu "request seg" in
  let address = c.last_addr + c.stride_addr + get_scaled cu ~scale:addr_scale "request address" in
  let lba = c.last_lba + c.stride_lba + get_scaled cu ~scale:addr_scale "request lba" in
  let size = c.last_size + get_scaled cu ~scale:addr_scale "request size" in
  let mode = if flags land 1 <> 0 then Ir.Write else Ir.Read in
  ctx_update c ~address ~lba ~size ~seg ~mode;
  touch slot index;
  append_request cu b ~at ~arrival ~think ~seg ~address ~lba ~size ~mode ~proc ~disk

let decode_compact cu p b ~at ~flags =
  let proc = get_u cu "request proc" in
  let disk = get_u cu "request disk" in
  let slot = slot_of p proc disk in
  let index = (flags lsr 1) land 1 in
  let c = pick slot index in
  let a = predict_arr c + get_scaled cu ~scale:time_scale "request arrival" in
  let zero = flags land 1 <> 0 in
  let d_addr = if zero then 0 else get_scaled cu ~scale:addr_scale "request address" in
  let d_lba = if zero then 0 else get_scaled cu ~scale:addr_scale "request lba" in
  let address = c.last_addr + c.stride_addr + d_addr in
  let lba = c.last_lba + c.stride_lba + d_lba in
  let size = c.last_size and seg = c.prev_seg and mode = c.prev_mode in
  let think = float_of_int c.prev_think /. 1000.0 in
  ctx_arrival c a;
  ctx_update c ~address ~lba ~size ~seg ~mode;
  touch slot index;
  append_request cu b ~at ~arrival:(float_of_int a /. 1000.0) ~think ~seg ~address ~lba
    ~size ~mode ~proc ~disk

let decode_hint c p ~flags : Hint.t =
  let disk = get_u c "hint disk" in
  let at_ms =
    if flags land 4 <> 0 then get_raw_float c "hint time"
    else begin
      let a = p.prev_hint_at + get_scaled c ~scale:time_scale "hint time" in
      p.prev_hint_at <- a;
      float_of_int a /. 1000.0
    end
  in
  let action =
    match flags land 3 with
    | 0 -> Hint.Spin_down
    | 1 ->
        let lead =
          if flags land 8 <> 0 then get_raw_float c "hint lead"
          else float_of_int (get_scaled c ~scale:time_scale "hint lead") /. 1000.0
        in
        Hint.Pre_spin_up lead
    | 2 -> Hint.Set_rpm (get_u c "hint rpm")
    | _ -> fail c c.pos "bad hint action %d" (flags land 3)
  in
  { at_ms; disk; action }

let decode_fault c : Fault_model.t =
  let len = get_u c "fault spec length" in
  if len < 0 || len > c.lim - c.pos then
    fail c c.pos "truncated record: fault spec runs past chunk end";
  let at = c.pos in
  let spec = String.sub c.s at len in
  c.pos <- at + len;
  match Fault_model.of_spec spec with
  | Ok f -> f
  | Error msg -> fail c at "bad fault spec %S: %s" spec msg

(* Decodes the records of the chunk the cursor is bounded by: requests
   onto the trace [b], hints newest first onto [hints]; returns how many
   records there were. *)
let decode_chunk c p b hints faults =
  let n = ref 0 in
  while c.pos < c.lim do
    let at = c.pos in
    let tag = get_byte c "record tag" in
    let flags = tag land 0xf in
    let kind = tag lsr 4 in
    if kind = kind_request then decode_request c p b ~at ~flags
    else if kind = kind_compact then decode_compact c p b ~at ~flags
    else if kind = kind_hint then begin
      let hint = decode_hint c p ~flags in
      check_id c ~at "hint disk" hint.disk;
      hints := hint :: !hints
    end
    else if kind = kind_fault then faults := Some (decode_fault c)
    else fail c at "unknown record kind %d" kind;
    incr n
  done;
  !n

(* Framing fields between chunks, where the cursor is bounded by the end
   of the input. *)
let need c n what =
  let got = c.lim - c.pos in
  if got < n then fail c c.pos "truncated trace: %s needs %d bytes, found %d" what n got

(* A header or trailer varint: too long is reported at its start, cut
   short at the end of the input. *)
let read_varint c what =
  let at = c.pos in
  let rec go shift acc =
    if shift > 62 then fail c at "malformed %s: varint too long" what;
    if c.pos >= c.lim then fail c c.pos "truncated trace: missing %s" what;
    let b = Char.code c.s.[c.pos] in
    c.pos <- c.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

(* The header, leaving the cursor on the first chunk; returns [rounds]. *)
let header c =
  if not (String.starts_with ~prefix:magic c.s) then
    fail c 0 "bad magic: not a binary trace (expected %S header)" magic;
  need c 6 "header";
  let version = Char.code c.s.[4] in
  if version <> format_version then
    fail c 4 "unsupported binary trace version %d (this build reads version %d)" version
      format_version;
  let hflags = Char.code c.s.[5] in
  if hflags land lnot 1 <> 0 then fail c 5 "bad header flags 0x%x" hflags;
  c.pos <- 6;
  if hflags land 1 <> 0 then Some (read_varint c "header rounds") else None

(* The record count of a well-framed trace, read from its trailer by
   skipping from chunk header to chunk header; [None] when the framing
   is off, which the decode proper then reports. *)
let trailer_count s ~from =
  let n = String.length s in
  let rec go pos =
    if pos >= n then None
    else
      match s.[pos] with
      | 'C' when pos + 5 <= n ->
          let len = Int32.to_int (String.get_int32_le s (pos + 1)) in
          if len <= 0 || len > max_chunk_bytes then None else go (pos + 5 + len + 16)
      | 'E' -> (
          let c = { s; file = ""; pos = pos + 1; lim = n } in
          match read_varint c "" with v -> Some v | exception Fail _ -> None)
      | _ -> None
  in
  go from

let decode ?(file = "<buffer>") ?(verified = false) s =
  let c = { s; file; pos = 0; lim = String.length s } in
  let p = predictors () in
  let hints = ref [] and faults = ref None in
  let rec chunks b nrecords =
    let marker_at = c.pos in
    if c.pos >= c.lim then fail c marker_at "truncated trace: missing end-of-trace marker";
    let marker = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match marker with
    | 'C' ->
        need c 4 "chunk length";
        let len = Int32.to_int (String.get_int32_le s c.pos) in
        if len <= 0 || len > max_chunk_bytes then fail c marker_at "bad chunk length %d" len;
        c.pos <- c.pos + 4;
        let data_at = c.pos in
        need c len "chunk payload";
        c.pos <- data_at + len;
        need c 16 "chunk checksum";
        if (not verified) && Digest.substring s data_at len <> String.sub s c.pos 16 then
          fail c marker_at "chunk checksum mismatch (%d-byte chunk)" len;
        (* The records, with the cursor bounded by the chunk. *)
        c.pos <- data_at;
        c.lim <- data_at + len;
        let n = decode_chunk c p b hints faults in
        c.pos <- c.lim + 16;
        c.lim <- String.length s;
        chunks b (nrecords + n)
    | 'E' ->
        let n = read_varint c "end-of-trace record count" in
        if n <> nrecords then
          fail c marker_at "record count mismatch: trailer says %d, decoded %d" n nrecords;
        if c.pos < c.lim then fail c c.pos "trailing bytes after end-of-trace marker"
    | m -> fail c marker_at "bad chunk marker %C (expected 'C' or 'E')" m
  in
  match
    let rounds = header c in
    (* Sized from the trailer, the trace is built without growing; a
       request record takes at least 4 bytes, which bounds a count that
       lies. *)
    let capacity = Option.value ~default:1024 (trailer_count s ~from:c.pos) in
    let b = Trace.Builder.create (Int.min capacity (String.length s / 4)) in
    chunks b 0;
    (Trace.Builder.finish b, rounds)
  with
  | trace, rounds -> Ok (trace, List.rev !hints, !faults, rounds)
  | exception Fail e -> Error e

let load_result path =
  match Dp_util.Fsx.read_file path with
  | exception Sys_error msg -> Error { Request.file = path; line = 0; msg }
  | s when String.starts_with ~prefix:magic s -> (
      match decode ~file:path s with
      | Ok (trace, hints, faults, _rounds) -> Ok (trace, hints, faults, `Bin)
      | Error e -> Error (to_load_error e))
  | s ->
      Result.map
        (fun (reqs, hints, faults) -> (Trace.of_list reqs, hints, faults, `Text))
        (Request.of_string ~file:path s)
