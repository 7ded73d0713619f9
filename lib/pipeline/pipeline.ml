module Ir = Dp_ir.Ir
module App = Dp_workloads.App
module Workloads = Dp_workloads.Workloads
module Resolver = Dp_lang.Resolver
module Layout = Dp_layout.Layout
module Striping = Dp_layout.Striping
module Concrete = Dp_dependence.Concrete
module Cluster = Dp_restructure.Cluster
module Reuse = Dp_restructure.Reuse_scheduler
module Parallelize = Dp_restructure.Parallelize
module Generate = Dp_trace.Generate
module Request = Dp_trace.Request
module Trace = Dp_trace.Trace
module Hint = Dp_trace.Hint
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Oracle = Dp_oracle.Oracle
module Prof = Dp_obs.Prof
module Cachefs = Dp_cachefs.Cachefs
module Bin = Dp_trace.Bin

type mode = Original | Reuse_single | Reuse_multi

let mode_name = function
  | Original -> "original"
  | Reuse_single -> "single"
  | Reuse_multi -> "multi"

let mode_of_name = function
  | "original" -> Some Original
  | "single" -> Some Reuse_single
  | "multi" -> Some Reuse_multi
  | _ -> None

(* Memo keys carry exactly the knobs a stage's output depends on.  The
   clustering policy defaults are resolved here so [?cluster:None] and
   [?cluster:(Some First_ref)] share an entry. *)
type key = { k_procs : int; k_mode : mode; k_cluster : Cluster.policy }

type stats = {
  graph_builds : int;
  cluster_builds : int;
  stream_builds : int;
  trace_builds : int;
  hint_builds : int;
  summary_builds : int;
  reference_builds : int;
  memo_hits : int;
  disk_hits : int;
  disk_misses : int;
  corrupt_evictions : int;
}

(* One rule builds every stage: a stage is a memo table, a build count
   and the Prof span its builds run under ([span ^ ".fetch"] times a
   read from the store, decoding included).  A persisted stage also
   names its store entry per key and the codec of its values. *)
type ('k, 'v) stage = {
  span : string;
  tbl : ('k, 'v) Hashtbl.t;
  mutable builds : int;
  persist : ('k, 'v) codec option;
}

(* Every persisted value is a binary trace frame ({!Dp_trace.Bin}):
   the store hands [decode] a checksum-verified payload and counts a hit
   only when it decodes. *)
and ('k, 'v) codec = {
  entry : 'k -> string;
  encode : 'v -> string;
  decode : string -> 'v option;
}

type t = {
  app : App.t;
  layout : Layout.t;
  origin : string;
  (* Content address of everything the cached stages depend on: the
     program and its disk layout, structurally serialized (No_sharing
     keeps the bytes independent of physical sharing, so equal values
     digest equally whatever path constructed them). *)
  digest : string;
  cache : Cachefs.t option;
  lock : Mutex.t;
  (* [derive] shares this stage's table: the graph depends on the
     program alone. *)
  graph : (unit, Concrete.graph) stage;
  clusters : (Cluster.policy, Cluster.table) stage;
  streams : (key, Generate.segments array * int option) stage;
  (* The trace with the scheduler round count, so a warm run answers
     [rounds] without rebuilding the streams stage. *)
  traces : (key, Trace.t * int option) stage;
  hints : (key * Oracle.space, Hint.t list) stage;
  (* In memory only: both are cheap to rebuild from a (cached) trace. *)
  summaries : (key, Generate.summary) stage;
  references : (key, Oracle.reference) stage;
  mutable memo_hits : int;
}

let stats t =
  Mutex.protect t.lock (fun () ->
      let disk_hits, disk_misses, corrupt_evictions =
        match t.cache with
        | None -> (0, 0, 0)
        | Some c ->
            let k = Cachefs.counters c in
            (k.Cachefs.hits, k.Cachefs.misses, k.Cachefs.corrupt)
      in
      {
        graph_builds = t.graph.builds;
        cluster_builds = t.clusters.builds;
        stream_builds = t.streams.builds;
        trace_builds = t.traces.builds;
        hint_builds = t.hints.builds;
        summary_builds = t.summaries.builds;
        reference_builds = t.references.builds;
        memo_hits = t.memo_hits;
        disk_hits;
        disk_misses;
        corrupt_evictions;
      })

(* --- construction --- *)

let synth_app ~origin ~layout program =
  {
    App.name = origin;
    description = origin;
    program;
    striping = Striping.default;
    overrides =
      List.map
        (fun (e : Layout.entry) -> (e.Layout.decl.Ir.name, e.Layout.striping))
        layout.Layout.entries;
    paper_data_gb = 0.0;
    paper_requests = 0;
    paper_base_energy_j = 0.0;
    paper_io_time_ms = 0.0;
  }

(* --- the persistent stage cache ---

   Only the trace and hint stages spill to disk: they subsume their
   upstream stages, so a warm run never touches the dependence graph or
   the reuse scheduler at all.  Both spill as binary trace frames
   ({!Dp_trace.Bin}) inside a Cachefs frame (versioned header +
   checksum trailer): a trace entry carries the round count in its
   header, a hint entry is a hints-only frame.  The codec's raw-float
   fallback keeps unquantized engine-bound timestamps bit-exact, so a
   warm run is byte-identical to a cold one.  The codec version is part
   of every key: a format bump makes old entries miss cleanly instead
   of misdecoding.  All disk traffic happens under the context mutex,
   so the store needs no locking of its own beyond its writer lock. *)

let entry_key digest (k : key) stage extra =
  Cachefs.key
    ~parts:
      ([ digest; stage; mode_name k.k_mode; string_of_int k.k_procs;
         Cluster.policy_name k.k_cluster ]
      @ extra
      @ [ "bin"; string_of_int Bin.format_version ])

(* The store has checked the payload's checksum, which covers every
   chunk's. *)
let of_frame f payload =
  match Bin.decode ~verified:true payload with Ok v -> Some (f v) | Error _ -> None
let stage ?persist span = { span; tbl = Hashtbl.create 8; builds = 0; persist }

let make ?cache ~app ~layout ~origin () =
  let digest =
    Digest.to_hex
      (Digest.string (Marshal.to_string (app.App.program, layout) [ Marshal.No_sharing ]))
  in
  {
    app;
    layout;
    origin;
    digest;
    cache;
    lock = Mutex.create ();
    graph = stage "pipeline.graph";
    clusters = stage "pipeline.cluster-table";
    streams = stage "pipeline.streams";
    traces =
      stage "pipeline.trace"
        ~persist:
          {
            entry = (fun k -> entry_key digest k "trace" []);
            encode = (fun (trace, rounds) -> Bin.encode ?rounds trace);
            decode = of_frame (fun (trace, _, _, rounds) -> (trace, rounds));
          };
    hints =
      stage "pipeline.hints"
        ~persist:
          {
            entry =
              (fun (k, space) -> entry_key digest k "hints" [ Oracle.space_name space ]);
            encode = (fun hints -> Bin.encode ~hints Trace.empty);
            decode = of_frame (fun (_, hints, _, _) -> hints);
          };
    summaries = stage "pipeline.summary";
    references = stage "pipeline.reference";
    memo_hits = 0;
  }

let create ?cache ?(origin = "<program>") ?default ?(overrides = []) program =
  let layout = Layout.make ?default ~overrides program in
  make ?cache ~app:(synth_app ~origin ~layout program) ~layout ~origin ()

let of_app ?cache (app : App.t) =
  let layout =
    Layout.make ~default:app.App.striping ~overrides:app.App.overrides app.App.program
  in
  make ?cache ~app ~layout ~origin:app.App.name ()

let stripe_of_spec (sp : Dp_lang.Ast.stripe_spec) =
  Striping.make ~unit_bytes:sp.unit_bytes ~factor:sp.factor ~start_disk:sp.start_disk

let load ?cache source =
  if String.length source > 4 && String.sub source 0 4 = "app:" then begin
    let name = String.sub source 4 (String.length source - 4) in
    match Workloads.by_name name with
    | Some app -> of_app ?cache app
    | None ->
        Format.kasprintf failwith "unknown application %s (available: %s)" name
          (String.concat ", " (Workloads.names ()))
  end
  else begin
    let { Resolver.program; stripes } = Resolver.load_file source in
    let overrides = List.map (fun (name, sp) -> (name, stripe_of_spec sp)) stripes in
    create ?cache ~origin:source ~overrides program
  end

let derive ~layout t =
  let d = make ?cache:t.cache ~app:t.app ~layout ~origin:t.origin () in
  { d with graph = { t.graph with builds = 0 }; lock = t.lock }

let program t = t.app.App.program
let layout t = t.layout
let origin t = t.origin
let disks t = t.layout.Layout.disk_count
let app t = t.app
let digest t = t.digest
let cache t = t.cache

(* --- stages ---

   [memo] is the one rule every stage follows: look in the table, then
   in the store if the stage persists; on a miss, force the stage's
   inputs (its upstream stages) before taking the lock, and build under
   it.  Builds are serialized per context and locks never nest: a
   domain that missed may find another's build in the table once it
   holds the lock, and then builds nothing. *)

let memo t s k ~inputs build =
  let hit () =
    match Hashtbl.find_opt s.tbl k with
    | Some v ->
        t.memo_hits <- t.memo_hits + 1;
        Some v
    | None -> None
  in
  let fetch () =
    match (hit (), s.persist, t.cache) with
    | None, Some p, Some c ->
        let v =
          Prof.span (s.span ^ ".fetch") (fun () ->
              Cachefs.get c ~key:(p.entry k) ~decode:p.decode)
        in
        Option.iter (Hashtbl.add s.tbl k) v;
        v
    | v, _, _ -> v
  in
  match Mutex.protect t.lock fetch with
  | Some v -> v
  | None ->
      let x = inputs () in
      Mutex.protect t.lock (fun () ->
          match hit () with
          | Some v -> v
          | None ->
              let v = Prof.span s.span (fun () -> build x) in
              Hashtbl.add s.tbl k v;
              s.builds <- s.builds + 1;
              (* Write-through is advisory: a dropped write costs a
                 rebuild on some future run, never this one. *)
              (match (s.persist, t.cache) with
              | Some p, Some c -> Cachefs.put c ~key:(p.entry k) (p.encode v)
              | _ -> ());
              v)

let graph t = memo t t.graph () ~inputs:Fun.id (fun () -> Concrete.build (program t))

let cluster_table ?(cluster = Cluster.First_ref) t =
  memo t t.clusters cluster ~inputs:(fun () -> graph t) (fun g ->
      Cluster.build_table ~policy:cluster t.layout (program t) g)

let key ?(cluster = Cluster.First_ref) ~procs mode =
  if procs < 1 then
    invalid_arg (Printf.sprintf "Pipeline: procs must be >= 1 (got %d)" procs);
  if mode = Reuse_multi && procs = 1 then
    invalid_arg "Pipeline: the layout-aware mode needs several processors";
  { k_procs = procs; k_mode = mode; k_cluster = cluster }

(* The one definition of the per-processor execution streams of every
   matrix version (formerly duplicated between bin/dpcc.ml and
   lib/harness/runner.ml, with dpcc unable to produce the
   conventional-partition restructured streams at procs > 1). *)
let original_streams t g ~procs =
  if procs = 1 then Generate.single_stream ~order:(Concrete.original_order g)
  else
    (* Unmodified code, conventionally parallelized, fork-join nests. *)
    Generate.original_segments (program t) g (Parallelize.conventional (program t) g ~procs)

(* The restructured modes partition the instances and schedule every
   part in one scheduler pass.  [per_proc] parts per processor, part
   [p * per_proc + k] being processor [p]'s segment [k]:
   - T-*-s at one processor: the whole program, one part;
   - T-*-s at several: the single-CPU algorithm applied to each
     processor's share of the conventionally parallelized code, one part
     per (processor, nest) — the fork-join barriers between nests
     remain, so disk reuse is exploited within each nest only;
   - T-*-m: global restructuring, one part per processor's data-space
     share spanning all nests, no synchronization between them
     (Fig. 6(b)). *)
let reuse_streams t g table ~procs mode =
  let prog = program t in
  let per_proc, part =
    match mode with
    | Reuse_multi ->
        (1, (Parallelize.layout_aware t.layout prog g ~procs).Parallelize.owner)
    | _ when procs = 1 -> (1, Array.make (Concrete.instance_count g) 0)
    | _ ->
        ( List.length prog.Ir.nests,
          Parallelize.nest_parts prog g (Parallelize.conventional prog g ~procs) )
  in
  (* Each processor begins its disk tour on a different disk so the
     tours do not contend for the same I/O node. *)
  let disks = t.layout.Layout.disk_count in
  let start_disks = Array.init (procs * per_proc) (fun i -> i / per_proc * disks / procs) in
  let s = Reuse.schedule_parts table g ~part ~start_disks in
  ( Array.init procs (fun p ->
        List.init per_proc (fun k -> s.((p * per_proc) + k).Reuse.order)),
    Some (Array.fold_left (fun acc (s : Reuse.schedule) -> max acc s.Reuse.rounds) 0 s) )

let streams ?cluster t ~procs mode =
  memo t t.streams (key ?cluster ~procs mode)
    ~inputs:(fun () ->
      let g = graph t in
      (g, if mode = Original then None else Some (cluster_table ?cluster t)))
    (fun (g, table) ->
      match table with
      | None -> (original_streams t g ~procs, None)
      | Some table -> reuse_streams t g table ~procs mode)

let traced ?cluster t ~procs mode =
  memo t t.traces (key ?cluster ~procs mode)
    ~inputs:(fun () ->
      let s = streams ?cluster t ~procs mode in
      (s, graph t))
    (fun ((segs, rounds), g) ->
      (Generate.trace t.layout (program t) g.Concrete.instances segs, rounds))

let columns ?cluster t ~procs mode = fst (traced ?cluster t ~procs mode)
let trace ?cluster t ~procs mode = Trace.to_list (columns ?cluster t ~procs mode)
let rounds ?cluster t ~procs mode = snd (traced ?cluster t ~procs mode)

let hints ?cluster t ~procs ~space mode =
  memo t t.hints (key ?cluster ~procs mode, space)
    ~inputs:(fun () -> columns ?cluster t ~procs mode)
    (Oracle.hints ~space ~disks:(disks t))

(* The stages a trace feeds in memory, under the default clustering
   policy. *)
let summary t ~procs mode =
  memo t t.summaries (key ~procs mode) ~inputs:(fun () -> columns t ~procs mode)
    Generate.summarize_trace

let reference t ~procs mode =
  memo t t.references (key ~procs mode) ~inputs:(fun () -> columns t ~procs mode)
    (Oracle.reference ~disks:(disks t))

(* Compiler hints for the proactive policies: the hint emitter replays
   the nominal trace and plans each predicted gap, so the engine
   executes directives instead of consulting its omniscient planner. *)
let space_of_policy = function
  | Policy.Tpm { Policy.proactive = true; _ } -> Some Oracle.Tpm_space
  | Policy.Drpm { Policy.proactive = true; _ } -> Some Oracle.Drpm_space
  | _ -> None

let hints_for ?cluster t ~procs ~policy mode =
  match space_of_policy policy with
  | None -> []
  | Some space -> hints ?cluster t ~procs ~space mode

let simulate ?cluster ?knobs ?obs t ~procs ~policy mode =
  let trace = columns ?cluster t ~procs mode in
  let hints = hints_for ?cluster t ~procs ~policy mode in
  Prof.span "pipeline.simulate" (fun () ->
      Engine.replay ?obs ?knobs ~hints ~disks:(disks t) policy trace)
