(* In-memory spans of the traced pass, recorded around calls into each
   layer's public functions.  A span's name starts with its layer
   ("disksim.simulate.base"); the pass itself is the root span
   "traced", so its self time is everything no layer call covers. *)

module J = Dp_harness.Json_out

type span = {
  id : int;
  parent : int;  (** 0 for the root *)
  item : string;  (** the app, tenant run or scenario the call served *)
  name : string;
  start : float;
  stop : float;
  words : float;  (** allocated on the calling domain *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable current : int;
  counts : (string, float) Hashtbl.t;
}

let create () = { spans = []; next = 0; current = 0; counts = Hashtbl.create 16 }

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record t ~item name f =
  let id = t.next + 1 in
  t.next <- id;
  let parent = t.current in
  t.current <- id;
  let w0 = allocated () and start = Proc.now () in
  let v = Fun.protect ~finally:(fun () -> t.current <- parent) f in
  let stop = Proc.now () and words = allocated () -. w0 in
  t.spans <- { id; parent; item; name; start; stop; words } :: t.spans;
  v

let counted t name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)
let count t name n = Hashtbl.replace t.counts name (n +. counted t name)
let dur s = s.stop -. s.start
let layer_of name = List.hd (String.split_on_char '.' name)
let leaves t = List.filter (fun s -> s.parent <> 0) t.spans

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (dur s) else None) t.spans

let busy t name = List.fold_left ( +. ) 0. (durations t name)

let has_prefix ~prefix s =
  String.length s > String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Words allocated under every span named [prefix] or [prefix.*]. *)
let words t prefix =
  List.fold_left
    (fun acc s ->
      if s.name = prefix || has_prefix ~prefix:(prefix ^ ".") s.name then acc +. s.words
      else acc)
    0. t.spans

let wall t =
  List.fold_left (fun acc s -> if s.parent = 0 then acc +. dur s else acc) 0. t.spans

let layer_busy t layer =
  List.fold_left
    (fun acc s -> if layer_of s.name = layer then acc +. dur s else acc)
    0. (leaves t)

let residual t = wall t -. List.fold_left (fun acc s -> acc +. dur s) 0. (leaves t)

let to_json t =
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("parent", J.Int s.parent);
             ("item", J.String s.item);
             ("name", J.String s.name);
             ("start_s", J.Float s.start);
             ("end_s", J.Float s.stop);
             ("words", J.Float s.words);
           ])
       t.spans)

(* A Chrome trace_event document: one track (tid) per workload,
   complete ("X") events in microseconds from the earliest span. *)
let chrome tracks =
  let t0 =
    List.fold_left
      (fun acc (_, t) -> List.fold_left (fun acc s -> Float.min acc s.start) acc t.spans)
      infinity tracks
  in
  let us x = J.Int (int_of_float (Float.round (x *. 1e6))) in
  let events =
    List.concat
      (List.mapi
         (fun tid (workload, t) ->
           J.Obj
             [
               ("name", J.String "thread_name");
               ("ph", J.String "M");
               ("pid", J.Int 1);
               ("tid", J.Int tid);
               ("args", J.Obj [ ("name", J.String workload) ]);
             ]
           :: List.rev_map
                (fun s ->
                  J.Obj
                    [
                      ("name", J.String s.name);
                      ("cat", J.String (layer_of s.name));
                      ("ph", J.String "X");
                      ("ts", us (s.start -. t0));
                      ("dur", us (dur s));
                      ("pid", J.Int 1);
                      ("tid", J.Int tid);
                      ( "args",
                        J.Obj
                          [
                            ("item", J.String s.item);
                            ("id", J.Int s.id);
                            ("parent", J.Int s.parent);
                            ("alloc_words", J.Float s.words);
                          ] );
                    ])
                t.spans)
         tracks)
  in
  J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.String "ms") ]
