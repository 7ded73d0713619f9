module Splitmix = Dp_util.Splitmix
module Request = Dp_trace.Request
module Generate = Dp_trace.Generate
module Concrete = Dp_dependence.Concrete
module Pipeline = Dp_pipeline.Pipeline

type kind = Oltp of Oltp.params | App of string

type t = { index : int; kind : kind; stream : Request.t list }

let kind_name = function Oltp _ -> "oltp" | App name -> "app:" ^ name

let app_window = 256

let app_names = [| "AST"; "FFT"; "Cholesky"; "Visuo"; "SCF 3.0"; "RSense 2.0" |]

(* Normalize a raw stream to the tenant shape: single proc, single
   segment, disks folded into the array, arrivals rebased to 0 and made
   strictly increasing (a 10 µs bump breaks exact ties so the merged
   sort can never reorder a tenant's requests), think chained to the
   arrival deltas. *)
let normalize ~disks reqs =
  let reqs = Request.sort_arrival reqs in
  let base = match reqs with [] -> 0.0 | r :: _ -> r.Request.arrival_ms in
  let prev = ref neg_infinity in
  List.map
    (fun (r : Request.t) ->
      let at = r.Request.arrival_ms -. base in
      let at = if at <= !prev then !prev +. 0.01 else at in
      let think = if !prev = neg_infinity then at else at -. !prev in
      prev := at;
      {
        r with
        Request.arrival_ms = at;
        think_ms = think;
        seg = 0;
        proc = 0;
        disk = r.Request.disk mod disks;
      })
    reqs

(* The window is the head of the 1-processor Original trace.  That
   trace issues one request per access, in original order, each after
   the last on one clock, so its first [app_window] requests come from
   the shortest prefix of the iterations that makes [app_window]
   accesses, and the rest of the program is never enumerated. *)
let app_stream ~disks name =
  let ctx = Pipeline.load ("app:" ^ name) in
  let prog = Pipeline.program ctx in
  let prefix = Concrete.instances ~accesses:app_window prog in
  let order = Array.init (Array.length prefix) Fun.id in
  let trace =
    Generate.trace (Pipeline.layout ctx) prog prefix (Generate.single_stream ~order)
  in
  normalize ~disks
    (List.init (Int.min app_window (Dp_trace.Trace.length trace)) (Dp_trace.Trace.get trace))

let population ~rng ~tenants ~disks () =
  if tenants < 1 then invalid_arg "Tenant.population: tenants must be >= 1";
  if disks < 1 then invalid_arg "Tenant.population: disks must be >= 1";
  let windows : (string, Request.t list) Hashtbl.t = Hashtbl.create 8 in
  let window name =
    match Hashtbl.find_opt windows name with
    | Some w -> w
    | None ->
        let w = app_stream ~disks name in
        Hashtbl.add windows name w;
        w
  in
  List.init tenants (fun i ->
      let child = Splitmix.split rng in
      if i mod 4 = 3 then begin
        let name = app_names.(i / 4 mod Array.length app_names) in
        { index = i; kind = App name; stream = window name }
      end
      else begin
        let params = Oltp.draw child in
        let stream = normalize ~disks (Oltp.generate child ~disks params) in
        { index = i; kind = Oltp params; stream }
      end)
