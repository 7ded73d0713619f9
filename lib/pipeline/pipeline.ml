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
  (* A ref cell (not a mutable field) so [derive] can share the built
     graph between contexts that differ only in layout. *)
  graph_cell : Concrete.graph option ref;
  cluster_tbl : (Cluster.policy, Cluster.table) Hashtbl.t;
  streams_tbl : (key, Generate.segments array * int option) Hashtbl.t;
  trace_tbl : (key, Request.t list) Hashtbl.t;
  (* Filled alongside trace_tbl (from a build or a disk hit) so the
     round count is available without rebuilding the streams stage. *)
  rounds_tbl : (key, int option) Hashtbl.t;
  hint_tbl : (key * Oracle.space, Hint.t list) Hashtbl.t;
  (* In-memory only: both are cheap to rebuild from a (cached) trace. *)
  summary_tbl : (key, Generate.summary) Hashtbl.t;
  reference_tbl : (key, Oracle.reference) Hashtbl.t;
  mutable graph_builds : int;
  mutable cluster_builds : int;
  mutable stream_builds : int;
  mutable trace_builds : int;
  mutable hint_builds : int;
  mutable summary_builds : int;
  mutable reference_builds : int;
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
        graph_builds = t.graph_builds;
        cluster_builds = t.cluster_builds;
        stream_builds = t.stream_builds;
        trace_builds = t.trace_builds;
        hint_builds = t.hint_builds;
        summary_builds = t.summary_builds;
        reference_builds = t.reference_builds;
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

let make ?cache ~app ~layout ~origin () =
  {
    app;
    layout;
    origin;
    digest =
      Digest.to_hex
        (Digest.string (Marshal.to_string (app.App.program, layout) [ Marshal.No_sharing ]));
    cache;
    lock = Mutex.create ();
    graph_cell = ref None;
    cluster_tbl = Hashtbl.create 4;
    streams_tbl = Hashtbl.create 8;
    trace_tbl = Hashtbl.create 8;
    rounds_tbl = Hashtbl.create 8;
    hint_tbl = Hashtbl.create 8;
    summary_tbl = Hashtbl.create 8;
    reference_tbl = Hashtbl.create 8;
    graph_builds = 0;
    cluster_builds = 0;
    stream_builds = 0;
    trace_builds = 0;
    hint_builds = 0;
    summary_builds = 0;
    reference_builds = 0;
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
  { d with graph_cell = t.graph_cell; lock = t.lock }

let program t = t.app.App.program
let layout t = t.layout
let origin t = t.origin
let disks t = t.layout.Layout.disk_count
let app t = t.app
let digest t = t.digest
let cache t = t.cache

(* --- stages --- *)

(* Each stage takes the lock only around its own table: builds are
   serialized per context, and stages acquire their inputs (upstream
   stages) before locking, so locks never nest. *)

let graph t =
  Mutex.protect t.lock (fun () ->
      match !(t.graph_cell) with
      | Some g ->
          t.memo_hits <- t.memo_hits + 1;
          g
      | None ->
          let g = Prof.span "pipeline.graph" (fun () -> Concrete.build (program t)) in
          t.graph_cell := Some g;
          t.graph_builds <- t.graph_builds + 1;
          g)

let cluster_table ?(cluster = Cluster.First_ref) t =
  let g = graph t in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.cluster_tbl cluster with
      | Some table ->
          t.memo_hits <- t.memo_hits + 1;
          table
      | None ->
          let table =
            Prof.span "pipeline.cluster-table" (fun () ->
                Cluster.build_table ~policy:cluster t.layout (program t) g)
          in
          Hashtbl.add t.cluster_tbl cluster table;
          t.cluster_builds <- t.cluster_builds + 1;
          table)

let key ?(cluster = Cluster.First_ref) ~procs mode =
  { k_procs = procs; k_mode = mode; k_cluster = cluster }

let check_streams_args ~procs mode =
  if procs < 1 then
    invalid_arg (Printf.sprintf "Pipeline.streams: procs must be >= 1 (got %d)" procs);
  if mode = Reuse_multi && procs = 1 then
    invalid_arg "Pipeline.streams: the layout-aware mode needs several processors"

(* The one definition of the per-processor execution streams of every
   matrix version (formerly duplicated between bin/dpcc.ml and
   lib/harness/runner.ml, with dpcc unable to produce the
   conventional-partition restructured streams at procs > 1). *)
let original_streams t g ~procs =
  if procs = 1 then Generate.single_stream g ~order:(Concrete.original_order g)
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
  check_streams_args ~procs mode;
  let g = graph t in
  (* The cluster table is a stage of its own: force it here, before
     taking the lock, as [graph] is — locks never nest. *)
  let build =
    match mode with
    | Original -> fun () -> (original_streams t g ~procs, None)
    | Reuse_single | Reuse_multi ->
        let table = cluster_table ?cluster t in
        fun () -> reuse_streams t g table ~procs mode
  in
  let k = key ?cluster ~procs mode in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.streams_tbl k with
      | Some v ->
          t.memo_hits <- t.memo_hits + 1;
          v
      | None ->
          let v = Prof.span "pipeline.streams" build in
          Hashtbl.add t.streams_tbl k v;
          if not (Hashtbl.mem t.rounds_tbl k) then Hashtbl.add t.rounds_tbl k (snd v);
          t.stream_builds <- t.stream_builds + 1;
          v)

(* --- the persistent stage cache ---

   Only the trace and hint stages spill to disk: they subsume their
   upstream stages, so a warm run never touches the dependence graph or
   the reuse scheduler at all.  Trace payloads are binary trace frames
   ({!Dp_trace.Bin}), hint payloads Marshal blobs; both ride inside a
   Cachefs frame (versioned header + checksum trailer).  A decode
   failure after the frame verified means a format drift — the entry is
   quarantined and recomputed.  All disk traffic happens under the
   context mutex: stage lookups are already serialized, so the cache
   needs no locking of its own beyond its writer lock. *)

let stage_key t (k : key) stage extra =
  Cachefs.key
    ~parts:
      ([ t.digest; stage; mode_name k.k_mode; string_of_int k.k_procs;
         Cluster.policy_name k.k_cluster ]
      @ extra)

let cache_fetch : type a. t -> key:string -> a option =
 fun t ~key ->
  match t.cache with
  | None -> None
  | Some c -> (
      match Cachefs.get c ~key with
      | None -> None
      | Some payload -> (
          match (Marshal.from_string payload 0 : a) with
          | v -> Some v
          | exception (Failure _ | Invalid_argument _) ->
              Cachefs.report_undecodable c ~key;
              None))

(* Write-through is advisory: a dropped write (named lock timeout or
   plain I/O failure) costs a recompute on some future run, never this
   one — the in-memory memo already holds the value. *)
let cache_store t ~key v =
  match t.cache with
  | None -> ()
  | Some c -> (
      match Cachefs.put_result c ~key (Marshal.to_string v []) with
      | Ok () | Error (Cachefs.Lock_timeout _) -> ())

(* The trace stage spills as a binary trace frame (see {!Dp_trace.Bin})
   rather than a Marshal blob: the payload is then self-describing —
   [dpcc cache stat] can tell traces from the other entries by magic —
   and an order of magnitude smaller.  The codec's raw-float fallback
   keeps unquantized engine-bound timestamps bit-exact, so a warm run
   is byte-identical to a cold one.  The codec version is part of the
   key: a format bump makes old entries miss cleanly instead of
   misdecoding. *)

let trace_stage_key t k =
  stage_key t k "trace" [ "bin"; string_of_int Bin.format_version ]

let trace_cache_fetch t ~key =
  match t.cache with
  | None -> None
  | Some c -> (
      match Cachefs.get c ~key with
      | None -> None
      | Some payload -> (
          match Bin.decode payload with
          | Ok (reqs, _, _, rounds) -> Some (reqs, rounds)
          | Error _ ->
              Cachefs.report_undecodable c ~key;
              None))

let trace_cache_store t ~key (reqs, rounds) =
  match t.cache with
  | None -> ()
  | Some c -> (
      match Cachefs.put_result c ~key (Bin.encode ?rounds reqs) with
      | Ok () | Error (Cachefs.Lock_timeout _) -> ())

(* The trace entry carries the scheduler round count too, so a warm
   run can answer [rounds] without rebuilding the streams stage. *)
let trace_lookup t k =
  match Hashtbl.find_opt t.trace_tbl k with
  | Some reqs ->
      t.memo_hits <- t.memo_hits + 1;
      Some (reqs, try Hashtbl.find t.rounds_tbl k with Not_found -> None)
  | None -> (
      match trace_cache_fetch t ~key:(trace_stage_key t k) with
      | Some ((reqs, rounds) as v) ->
          Hashtbl.add t.trace_tbl k reqs;
          Hashtbl.replace t.rounds_tbl k rounds;
          Some v
      | None -> None)

let trace ?cluster t ~procs mode =
  check_streams_args ~procs mode;
  let k = key ?cluster ~procs mode in
  match Mutex.protect t.lock (fun () -> trace_lookup t k) with
  | Some (reqs, _) -> reqs
  | None ->
      let segs, rounds = streams ?cluster t ~procs mode in
      let g = graph t in
      Mutex.protect t.lock (fun () ->
          (* Another domain may have built or fetched it meanwhile. *)
          match Hashtbl.find_opt t.trace_tbl k with
          | Some v ->
              t.memo_hits <- t.memo_hits + 1;
              v
          | None ->
              let v =
                Prof.span "pipeline.trace" (fun () ->
                    Generate.trace t.layout (program t) g segs)
              in
              Hashtbl.add t.trace_tbl k v;
              Hashtbl.replace t.rounds_tbl k rounds;
              t.trace_builds <- t.trace_builds + 1;
              trace_cache_store t ~key:(trace_stage_key t k) (v, rounds);
              v)

let rounds ?cluster t ~procs mode =
  check_streams_args ~procs mode;
  let k = key ?cluster ~procs mode in
  match Mutex.protect t.lock (fun () -> trace_lookup t k) with
  | Some (_, rounds) -> rounds
  | None -> snd (streams ?cluster t ~procs mode)

let hints ?cluster t ~procs ~space mode =
  check_streams_args ~procs mode;
  let k = key ?cluster ~procs mode in
  let hk = (k, space) in
  let dk = stage_key t k "hints" [ Oracle.space_name space ] in
  let lookup () =
    match Hashtbl.find_opt t.hint_tbl hk with
    | Some v ->
        t.memo_hits <- t.memo_hits + 1;
        Some v
    | None -> (
        match (cache_fetch t ~key:dk : Hint.t list option) with
        | Some v ->
            Hashtbl.add t.hint_tbl hk v;
            Some v
        | None -> None)
  in
  match Mutex.protect t.lock lookup with
  | Some v -> v
  | None ->
      let reqs = trace ?cluster t ~procs mode in
      Mutex.protect t.lock (fun () ->
          match Hashtbl.find_opt t.hint_tbl hk with
          | Some v ->
              t.memo_hits <- t.memo_hits + 1;
              v
          | None ->
              let v =
                Prof.span "pipeline.hints" (fun () ->
                    Oracle.hints_of_trace ~space ~disks:(disks t) reqs)
              in
              Hashtbl.add t.hint_tbl hk v;
              t.hint_builds <- t.hint_builds + 1;
              cache_store t ~key:dk v;
              v)

(* The stages a trace feeds in memory: looked up first, so a memo hit
   never touches the trace stage; on a miss the trace is forced before
   the lock is taken, and the build runs under the lock, so each is
   built once per context however many rows ask for it. *)
let of_trace t ~procs mode tbl ~span ~built f =
  check_streams_args ~procs mode;
  let k = key ~procs mode in
  let hit () =
    match Hashtbl.find_opt tbl k with
    | Some v ->
        t.memo_hits <- t.memo_hits + 1;
        Some v
    | None -> None
  in
  match Mutex.protect t.lock hit with
  | Some v -> v
  | None ->
      let reqs = trace t ~procs mode in
      Mutex.protect t.lock (fun () ->
          match hit () with
          | Some v -> v
          | None ->
              let v = Prof.span span (fun () -> f reqs) in
              Hashtbl.add tbl k v;
              built ();
              v)

let summary t ~procs mode =
  of_trace t ~procs mode t.summary_tbl ~span:"pipeline.summary"
    ~built:(fun () -> t.summary_builds <- t.summary_builds + 1)
    Generate.summarize

let reference t ~procs mode =
  of_trace t ~procs mode t.reference_tbl ~span:"pipeline.reference"
    ~built:(fun () -> t.reference_builds <- t.reference_builds + 1)
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

let simulate ?cluster ?knobs ?obs ?shards t ~procs ~policy mode =
  let reqs = trace ?cluster t ~procs mode in
  let hints = hints_for ?cluster t ~procs ~policy mode in
  Prof.span "pipeline.simulate" (fun () ->
      Engine.simulate ?obs ?knobs ?shards ~hints ~disks:(disks t)
        policy reqs)
