(* Distribution-shift statistics between two gap-histogram JSONL
   artifacts, as produced by Report.jsonl. *)

module Json = Dp_util.Json

type hist = {
  edges : float array;
  counts : int array;
  count : int;
  sum : float;
  vmax : float;
}

type side = {
  disk : int;
  requests : int;
  busy_ms : float;
  idle_ms : float;
  standby_ms : float;
  transition_ms : float;
  energy_j : float;
  hints : int;
  faults : int;
  idle_gaps : hist;
  response : hist;
  standby_residency : hist;
}

type shift = { ks : float; emd : float }

type line_diff = {
  index : int;
  disk : int;
  gaps : shift;
  resp : shift;
  residency : shift;
  d_energy_j : float;
  d_requests : int;
  d_mean_response_ms : float;
  d_standby_share : float;
}

type report = { lines : line_diff list; max_ks : float; max_emd : float }

exception Bad of string

(* --- field extraction --- *)

let field (obj : Json.t) name =
  match obj with
  | Json.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> raise (Bad (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Bad "expected an object")

let jnum : Json.t -> float = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | Json.Null -> Float.nan  (* Report.jsonl writes non-finite floats as null *)
  | _ -> raise (Bad "expected a number")

let jint : Json.t -> int = function Json.Int i -> i | j -> int_of_float (jnum j)

let jarray f : Json.t -> _ = function
  | Json.List vs -> Array.of_list (List.map f vs)
  | _ -> raise (Bad "expected an array")

let hist_of_json j =
  {
    edges = jarray jnum (field j "edges");
    counts = jarray jint (field j "counts");
    count = jint (field j "count");
    sum = jnum (field j "sum");
    vmax = jnum (field j "max");
  }

let side_of_json j =
  {
    disk = jint (field j "disk");
    requests = jint (field j "requests");
    busy_ms = jnum (field j "busy_ms");
    idle_ms = jnum (field j "idle_ms");
    standby_ms = jnum (field j "standby_ms");
    transition_ms = jnum (field j "transition_ms");
    energy_j = jnum (field j "energy_j");
    hints = jint (field j "hints");
    faults = jint (field j "faults");
    idle_gaps = hist_of_json (field j "idle_gaps");
    response = hist_of_json (field j "response");
    standby_residency = hist_of_json (field j "standby_residency");
  }

let parse contents =
  let lines = String.split_on_char '\n' contents in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else begin
          match Result.map side_of_json (Json.of_string line) with
          | Ok side -> go (lineno + 1) (side :: acc) rest
          | Error msg | (exception Bad msg) -> Error (Printf.sprintf "line %d: %s" lineno msg)
        end
  in
  go 1 [] lines

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> (
      match parse contents with
      | Ok sides -> Ok sides
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error msg -> Error msg

(* --- the statistics --- *)

let shift_of a b =
  if a.edges <> b.edges then raise (Bad "histograms bucketed on different edges");
  let nb = Array.length a.counts in
  if a.count = 0 && b.count = 0 then { ks = 0.0; emd = 0.0 }
  else if a.count = 0 || b.count = 0 then { ks = 1.0; emd = float_of_int nb }
  else begin
    let na = float_of_int a.count and nbt = float_of_int b.count in
    let ca = ref 0.0 and cb = ref 0.0 in
    let ks = ref 0.0 and emd = ref 0.0 in
    for k = 0 to nb - 1 do
      ca := !ca +. (float_of_int a.counts.(k) /. na);
      cb := !cb +. (float_of_int b.counts.(k) /. nbt);
      let d = Float.abs (!ca -. !cb) in
      if d > !ks then ks := d;
      (* Wasserstein-1 with unit distance between adjacent buckets is
         the sum of absolute CDF differences. *)
      emd := !emd +. d
    done;
    { ks = !ks; emd = !emd }
  end

let mean_of h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

let standby_share s =
  let total = s.busy_ms +. s.idle_ms +. s.standby_ms +. s.transition_ms in
  if total <= 0.0 then 0.0 else s.standby_ms /. total

let diff ~a ~b =
  let la = List.length a and lb = List.length b in
  if la <> lb then
    Error (Printf.sprintf "artifacts have different line counts (%d vs %d)" la lb)
  else begin
    match
      List.mapi
        (fun index ((sa : side), (sb : side)) ->
          if sa.disk <> sb.disk then
            raise
              (Bad
                 (Printf.sprintf "line %d pairs disk %d with disk %d" index sa.disk
                    sb.disk));
          {
            index;
            disk = sa.disk;
            gaps = shift_of sa.idle_gaps sb.idle_gaps;
            resp = shift_of sa.response sb.response;
            residency = shift_of sa.standby_residency sb.standby_residency;
            d_energy_j = sb.energy_j -. sa.energy_j;
            d_requests = sb.requests - sa.requests;
            d_mean_response_ms = mean_of sb.response -. mean_of sa.response;
            d_standby_share = standby_share sb -. standby_share sa;
          })
        (List.combine a b)
    with
    | lines ->
        let max_over f =
          List.fold_left
            (fun m l -> Float.max m (Float.max (f l.gaps) (Float.max (f l.resp) (f l.residency))))
            0.0 lines
        in
        Ok { lines; max_ks = max_over (fun s -> s.ks); max_emd = max_over (fun s -> s.emd) }
    | exception Bad msg -> Error msg
  end

let exceeds ~threshold r = r.max_ks > threshold

let pp_line ppf l =
  Format.fprintf ppf
    "line %d disk %d: gaps KS %.4f EMD %.3f | resp KS %.4f EMD %.3f | standby KS %.4f \
     EMD %.3f | energy %+.1f J  resp-mean %+.3f ms  standby-share %+.4f  requests %+d"
    l.index l.disk l.gaps.ks l.gaps.emd l.resp.ks l.resp.emd l.residency.ks
    l.residency.emd l.d_energy_j l.d_mean_response_ms l.d_standby_share l.d_requests

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,max KS %.6f, max EMD %.6f over %d line(s)@]"
    (Format.pp_print_list pp_line) r.lines r.max_ks r.max_emd
    (List.length r.lines)

let to_json r : Json.t =
  let shift s = Json.Obj [ ("ks", Json.Float s.ks); ("emd", Json.Float s.emd) ] in
  let line l =
    Json.Obj
      [ ("index", Json.Int l.index); ("disk", Json.Int l.disk); ("idle_gaps", shift l.gaps);
        ("response", shift l.resp); ("standby_residency", shift l.residency);
        ("d_energy_j", Json.Float l.d_energy_j); ("d_requests", Json.Int l.d_requests);
        ("d_mean_response_ms", Json.Float l.d_mean_response_ms);
        ("d_standby_share", Json.Float l.d_standby_share) ]
  in
  Json.Obj
    [ ("lines", Json.List (List.map line r.lines)); ("max_ks", Json.Float r.max_ks);
      ("max_emd", Json.Float r.max_emd) ]
