(* Tests for the persistent-failure domain: the bad-sector map, the
   spare-pool/scrub/rebuild state machine, the engine's degraded serving
   paths (remap charges, deadline failover, whole-disk failure and
   rebuild), and the cross-domain determinism of the decay stream. *)

module Badmap = Dp_repair.Badmap
module Repair = Dp_repair.Repair
module Fault_model = Dp_faults.Fault_model
module Injector = Dp_faults.Injector
module Disk_model = Dp_disksim.Disk_model
module Policy = Dp_disksim.Policy
module Engine = Dp_disksim.Engine
module Knobs = Dp_disksim.Knobs
module Request = Dp_trace.Request
module Domain_pool = Dp_util.Domain_pool
module Ir = Dp_ir.Ir

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let m = Disk_model.ultrastar_36z15

let knobs ?faults ?(retry = Policy.default_retry) ?repair ?deadline_ms () =
  { Knobs.none with faults; retry; repair; deadline_ms }

(* A run and what the conservation recorder found in it. *)
let simulate_checked ?faults ?retry ?repair ?deadline_ms ~disks policy reqs =
  let obs, finish = Engine.recorder ~disks () in
  let knobs = knobs ?faults ?retry ?repair ?deadline_ms () in
  let r = Engine.simulate ~obs ~knobs ~disks policy reqs in
  (r, finish r)

let conserved findings =
  check Alcotest.(list string) "conservation" []
    (List.map (fun (f : Engine.finding) -> f.identity ^ ": " ^ f.detail) findings)

let req ?(proc = 0) ?(seg = 0) ?(disk = 0) ?(lba = 0) ~think () =
  {
    Request.arrival_ms = 0.0 (* reference only *);
    think_ms = think;
    seg;
    address = lba;
    lba;
    size = 64 * 1024;
    mode = Ir.Read;
    proc;
    disk;
  }

let rejects name f =
  check Alcotest.bool name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

(* --- the bad-sector map --- *)

let test_badmap_statuses () =
  let map = Badmap.make ~blocks:8 in
  check Alcotest.int "surface size" 8 (Badmap.blocks map);
  check Alcotest.bool "all good initially" true
    (List.for_all (fun b -> Badmap.status map b = Badmap.Good) [ 0; 3; 7 ]);
  check Alcotest.bool "grow succeeds" true (Badmap.set_bad map 3);
  check Alcotest.bool "grow is idempotent" false (Badmap.set_bad map 3);
  check Alcotest.int "one bad" 1 (Badmap.bad_count map);
  Badmap.set_remapped map 3;
  check Alcotest.bool "remapped" true (Badmap.status map 3 = Badmap.Remapped);
  check Alcotest.int "no longer bad" 0 (Badmap.bad_count map);
  check Alcotest.int "one remapped" 1 (Badmap.remapped_count map);
  check Alcotest.bool "cannot re-grow a remapped block" false (Badmap.set_bad map 3);
  rejects "remap of a good block" (fun () -> Badmap.set_remapped map 0);
  rejects "empty surface" (fun () -> Badmap.make ~blocks:0)

let test_badmap_digest () =
  let a = Badmap.make ~blocks:16 and b = Badmap.make ~blocks:16 in
  check Alcotest.bool "fresh maps agree" true (Badmap.digest a = Badmap.digest b);
  ignore (Badmap.set_bad a 5);
  check Alcotest.bool "a defect changes the digest" false (Badmap.digest a = Badmap.digest b);
  ignore (Badmap.set_bad b 5);
  check Alcotest.bool "same history, same digest" true (Badmap.digest a = Badmap.digest b);
  Badmap.set_remapped a 5;
  check Alcotest.bool "remap changes the digest" false (Badmap.digest a = Badmap.digest b);
  Badmap.clear a;
  let fresh = Badmap.make ~blocks:16 in
  check Alcotest.bool "clear restores the fresh digest" true
    (Badmap.digest a = Badmap.digest fresh)

(* Pinned at the flat byte map the paged one replaced: a fresh default
   surface, then defects on both sides of the first page edge and on the
   last block. *)
let test_badmap_digest_pinned () =
  let map = Badmap.make ~blocks:65_536 in
  check Alcotest.int64 "fresh 64 Ki-block map" 0xeb05052ea5b62325L (Badmap.digest map);
  List.iter (fun b -> ignore (Badmap.set_bad map b)) [ 0; 1023; 1024; 65535 ];
  Badmap.set_remapped map 1024;
  check Alcotest.int64 "four defects, one remapped" 0x29517af4a3571322L (Badmap.digest map)

type map_op = Set_bad of int | Set_remapped of int | Clear | Next of int * int

(* Blocks cluster at page edges (multiples of 1,024, give or take two)
   as often as they land anywhere. *)
let map_case_gen =
  let open QCheck2.Gen in
  let block =
    oneof
      [ int_range 0 3_000; map2 (fun p d -> (1024 * p) + d) (int_range 1 2) (int_range (-2) 2) ]
  in
  let op =
    frequency
      [
        (5, map (fun b -> Set_bad b) block);
        (3, map (fun b -> Set_remapped b) block);
        (1, return Clear);
        (2, map2 (fun a b -> Next (a, b)) block block);
      ]
  in
  pair
    (oneof [ int_range 1 3_000; oneofl [ 1; 1023; 1024; 1025; 2047; 2048; 2049 ] ])
    (list_size (int_range 1 200) op)

(* The paged map against a one-byte-per-block reference kept here: every
   answer, every count and the digest after every step. *)
let prop_badmap_model =
  qtest ~count:300 "Badmap: paged map = one byte per block" map_case_gen (fun (blocks, ops) ->
      let map = Badmap.make ~blocks and cells = Bytes.make blocks '\000' in
      let code = function
        | Badmap.Good -> '\000'
        | Badmap.Bad -> '\001'
        | Badmap.Remapped -> '\002'
      in
      let count c = Seq.fold_left (fun n x -> if x = c then n + 1 else n) 0 (Bytes.to_seq cells) in
      let digest () =
        Bytes.fold_left
          (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
          0xcbf29ce484222325L cells
      in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      let step op =
        match op with
        | Set_bad b when b < blocks ->
            let fresh = Bytes.get cells b = '\000' in
            if fresh then Bytes.set cells b '\001';
            Badmap.set_bad map b = fresh
        | Set_remapped b when b < blocks ->
            if Bytes.get cells b = '\001' then begin
              Bytes.set cells b '\002';
              Badmap.set_remapped map b;
              true
            end
            else raises (fun () -> Badmap.set_remapped map b)
        | Set_bad b -> raises (fun () -> Badmap.set_bad map b)
        | Set_remapped b -> raises (fun () -> Badmap.set_remapped map b)
        | Clear ->
            Bytes.fill cells 0 blocks '\000';
            Badmap.clear map;
            true
        | Next (a, b) ->
            let lo = min a blocks and hi = min (max a b) blocks in
            let rec first i = if i < hi && Bytes.get cells i = '\000' then first (i + 1) else i in
            Badmap.next_defect map lo ~hi = first lo
      in
      List.for_all
        (fun op ->
          step op
          && Badmap.bad_count map = count '\001'
          && Badmap.remapped_count map = count '\002'
          && Badmap.digest map = digest ()
          && List.for_all
               (fun b -> b >= blocks || code (Badmap.status map b) = Bytes.get cells b)
               [ 0; 1; 1022; 1023; 1024; 1025; 2047; 2048; blocks - 1 ])
        ops
      && List.for_all (fun b -> code (Badmap.status map b) = Bytes.get cells b)
           (List.init blocks Fun.id))

(* --- the repair state machine --- *)

let test_repair_config_validation () =
  rejects "surface < 1" (fun () -> Repair.config ~surface_blocks:0 ());
  rejects "block bytes < 1" (fun () -> Repair.config ~block_bytes:0 ());
  rejects "negative scrub budget" (fun () -> Repair.config ~scrub_budget_ms:(-1.0) ());
  rejects "scrub chunk < 1" (fun () -> Repair.config ~scrub_chunk_blocks:0 ());
  rejects "rebuild chunk < 1" (fun () -> Repair.config ~rebuild_chunk_blocks:0 ());
  rejects "fail threshold < 1" (fun () -> Repair.config ~fail_threshold:0 ());
  rejects "no disks" (fun () -> Repair.make Repair.default ~disks:0);
  check Alcotest.bool "default scrub is off" true
    (Repair.default.Repair.scrub_budget_ms = 0.0);
  (* Every knob diagnostic names the knob and echoes the offending
     value. *)
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let echoes name needles f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument msg ->
        List.iter
          (fun needle ->
            check Alcotest.bool
              (Printf.sprintf "%s echoes %S (got %S)" name needle msg)
              true (contains ~needle msg))
          needles
  in
  echoes "surface" [ "surface_blocks"; "(got -3)" ] (fun () ->
      Repair.config ~surface_blocks:(-3) ());
  echoes "scrub chunk" [ "scrub_chunk_blocks"; "(got 0)" ] (fun () ->
      Repair.config ~scrub_chunk_blocks:0 ());
  echoes "scrub budget" [ "scrub_budget_ms"; "(got -2.5)" ] (fun () ->
      Repair.config ~scrub_budget_ms:(-2.5) ());
  echoes "disks" [ "disks"; "(got 0)" ] (fun () -> Repair.make Repair.default ~disks:0)

let test_repair_touch_remap_then_penalty () =
  (* One 4 KiB block grown bad: the first touch remaps it, later touches
     pay the detour. *)
  let t = Repair.make (Repair.config ~surface_blocks:16 ()) ~disks:1 in
  Repair.grow t ~disk:0 ~block:2;
  check Alcotest.int "defect counted" 1 (Repair.grown t 0);
  let first = Repair.touch t ~disk:0 ~spare:8 ~lba:0 ~bytes:(4 * 4096) in
  check Alcotest.int "first touch remaps" 1 first.Repair.remapped;
  check Alcotest.int "no penalty yet" 0 first.Repair.penalty_hits;
  check Alcotest.int "spare consumed" 1 (Repair.spare_used t 0);
  let again = Repair.touch t ~disk:0 ~spare:8 ~lba:0 ~bytes:(4 * 4096) in
  check Alcotest.int "no second remap" 0 again.Repair.remapped;
  check Alcotest.int "detour paid" 1 again.Repair.penalty_hits;
  (* A touch outside the remapped range costs nothing. *)
  let far = Repair.touch t ~disk:0 ~spare:8 ~lba:(8 * 4096) ~bytes:4096 in
  check Alcotest.bool "clean range is free" true
    (far.Repair.remapped = 0 && far.Repair.penalty_hits = 0);
  check Alcotest.int "one spare in all" 1 (Repair.spare_used t 0)

let test_repair_spare_exhaustion_fails_with_mirror () =
  let cfg = Repair.config ~surface_blocks:8 ~fail_threshold:100 () in
  let two = Repair.make cfg ~disks:2 in
  Repair.grow two ~disk:0 ~block:1;
  Repair.grow two ~disk:0 ~block:2;
  let touched = Repair.touch two ~disk:0 ~spare:1 ~lba:0 ~bytes:(8 * 4096) in
  check Alcotest.int "only one spare to give" 1 touched.Repair.remapped;
  check Alcotest.bool "exhausted pool retires the slot" true (Repair.should_fail two ~disk:0);
  (* The same history on a single-disk array never fails: no mirror. *)
  let one = Repair.make cfg ~disks:1 in
  Repair.grow one ~disk:0 ~block:1;
  Repair.grow one ~disk:0 ~block:2;
  ignore (Repair.touch one ~disk:0 ~spare:1 ~lba:0 ~bytes:(8 * 4096));
  check Alcotest.bool "mirror-less array keeps serving" false (Repair.should_fail one ~disk:0)

let test_repair_threshold_and_mirror_pairs () =
  let t = Repair.make (Repair.config ~surface_blocks:64 ~fail_threshold:2 ()) ~disks:5 in
  check Alcotest.(option int) "0 pairs 1" (Some 1) (Repair.mirror_of t 0);
  check Alcotest.(option int) "1 pairs 0" (Some 0) (Repair.mirror_of t 1);
  check Alcotest.(option int) "2 pairs 3" (Some 3) (Repair.mirror_of t 2);
  check Alcotest.(option int) "trailing odd disk uses its predecessor" (Some 3)
    (Repair.mirror_of t 4);
  let solo = Repair.make Repair.default ~disks:1 in
  check Alcotest.(option int) "single disk has no mirror" None (Repair.mirror_of solo 0);
  Repair.grow t ~disk:2 ~block:0;
  check Alcotest.bool "below threshold" false (Repair.should_fail t ~disk:2);
  Repair.grow t ~disk:2 ~block:1;
  check Alcotest.bool "at threshold" true (Repair.should_fail t ~disk:2);
  Repair.mark_failed t ~disk:2;
  check Alcotest.bool "marked failed" true (Repair.is_failed t 2);
  check Alcotest.bool "failed slot never re-fails" false (Repair.should_fail t ~disk:2);
  (* The hot spare starts with a clean map and pool. *)
  check Alcotest.int "fresh map" 0 (Repair.grown t 2);
  check Alcotest.int "fresh pool" 0 (Repair.spare_used t 2);
  (* With 2 down, 3's mirror is unhealthy: 3 must keep serving. *)
  Repair.grow t ~disk:3 ~block:0;
  Repair.grow t ~disk:3 ~block:1;
  check Alcotest.bool "no failure while the mirror is down" false
    (Repair.should_fail t ~disk:3)

let test_repair_rebuild_cycle () =
  let t =
    Repair.make
      (Repair.config ~surface_blocks:16 ~rebuild_blocks:8 ~rebuild_chunk_blocks:4
         ~fail_threshold:2 ())
      ~disks:2
  in
  rejects "rebuild of a healthy slot" (fun () -> Repair.rebuild_step t ~disk:0 ~blocks:4);
  Repair.grow t ~disk:0 ~block:0;
  Repair.grow t ~disk:0 ~block:1;
  Repair.mark_failed t ~disk:0;
  check Alcotest.bool "first slice incomplete" false (Repair.rebuild_step t ~disk:0 ~blocks:4);
  check Alcotest.bool "second slice restores" true (Repair.rebuild_step t ~disk:0 ~blocks:4);
  check Alcotest.bool "healthy again" false (Repair.is_failed t 0);
  rejects "no slice after the restore" (fun () -> Repair.rebuild_step t ~disk:0 ~blocks:4)

let test_repair_scrub_cursor () =
  (* An 8-block surface scrubbed in 4-block chunks: two commits complete
     one pass; a bad block under the cursor is found and remapped. *)
  let t =
    Repair.make (Repair.config ~surface_blocks:8 ~scrub_chunk_blocks:4 ()) ~disks:1
  in
  Repair.grow t ~disk:0 ~block:2;
  Repair.grow t ~disk:0 ~block:6;
  let blocks, found = Repair.scrub_peek t ~disk:0 ~spare:8 in
  check Alcotest.int "chunk spans 4 blocks" 4 blocks;
  check Alcotest.int "peek sees the first defect" 1 found;
  (* Peek is pure: nothing moved. *)
  let blocks', found' = Repair.scrub_peek t ~disk:0 ~spare:8 in
  check Alcotest.bool "peek is repeatable" true (blocks = blocks' && found = found');
  let done1, pass1 = Repair.scrub_commit t ~disk:0 ~spare:8 in
  check Alcotest.int "first chunk remaps one" 1 done1;
  check Alcotest.bool "pass not complete" false pass1;
  let done2, pass2 = Repair.scrub_commit t ~disk:0 ~spare:8 in
  check Alcotest.int "second chunk remaps the other" 1 done2;
  check Alcotest.bool "pass completes at the wrap" true pass2;
  check Alcotest.int "scrub remaps take spares" 2 (Repair.spare_used t 0);
  (* With no spares left, peek finds nothing to remap. *)
  Repair.grow t ~disk:0 ~block:0;
  let _, found_dry = Repair.scrub_peek t ~disk:0 ~spare:2 in
  check Alcotest.int "found capped by the spare pool" 0 found_dry

(* --- the engine's degraded serving paths --- *)

(* Decay at rate 1 over a single-block surface: every request grows (and
   immediately touches) block 0, so the first service pays exactly one
   remap write and each later service exactly one detour penalty. *)
let test_engine_remap_accounting () =
  let reqs =
    [ req ~think:10.0 (); req ~think:100.0 (); req ~think:100.0 () ]
  in
  let faults = Fault_model.make ~classes:[ Fault_model.Media_decay ] ~seed:3 ~rate:1.0 () in
  let repair = Repair.config ~surface_blocks:1 () in
  let clean = Engine.simulate ~disks:1 Policy.No_pm reqs in
  let r = Engine.simulate ~knobs:(knobs ~faults ~repair ()) ~disks:1 Policy.No_pm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.int "one remap" 1 d.Engine.remaps;
  check Alcotest.int "two detours" 2 d.Engine.remap_penalty_hits;
  let remap = Disk_model.remap_ms m ~rpm:15000 ~block_bytes:4096 in
  let extra = remap +. (2.0 *. m.Disk_model.remap_penalty_ms) in
  check (Alcotest.float 1e-6) "degraded time = remap + detours" extra d.Engine.degraded_ms;
  check (Alcotest.float 1e-6) "busy grew by exactly the repair work"
    (clean.Engine.per_disk.(0).Engine.busy_ms +. extra)
    d.Engine.busy_ms;
  (* Every repair millisecond is charged at active power. *)
  check (Alcotest.float 1e-6) "energy = clean + repair at active power"
    (clean.Engine.energy_j +. (13.5 *. extra /. 1000.0))
    r.Engine.energy_j;
  check (Alcotest.float 1e-6) "responses carry the repair time"
    (clean.Engine.io_time_ms +. extra)
    r.Engine.io_time_ms

let test_engine_scrub_in_gaps () =
  (* Grown defects left outside the touched range are cleaned up by the
     background scrubber during think-time gaps. *)
  let reqs =
    List.init 6 (fun i -> req ~think:(if i = 0 then 10.0 else 400.0) ~lba:0 ())
  in
  let faults = Fault_model.make ~classes:[ Fault_model.Media_decay ] ~seed:11 ~rate:1.0 () in
  let repair =
    Repair.config ~surface_blocks:4096 ~scrub_budget_ms:60.0 ~scrub_chunk_blocks:512 ()
  in
  let r, findings = simulate_checked ~faults ~repair ~disks:1 Policy.No_pm reqs in
  let d = r.Engine.per_disk.(0) in
  check Alcotest.bool "scrub chunks read" true (d.Engine.scrub_chunks > 0);
  check Alcotest.bool "the scrubber found defects" true (d.Engine.scrub_found > 0);
  check Alcotest.bool "scrub finds count as remaps" true
    (d.Engine.remaps >= d.Engine.scrub_found);
  check Alcotest.int "all served" 6 d.Engine.requests;
  (* Conservation and contiguity hold on the scrubbed timeline. *)
  conserved findings;
  (* Scrub keeps the foreground schedule: arrivals are never delayed, so
     io time matches a run without scrubbing. *)
  let no_scrub =
    Engine.simulate
      ~knobs:(knobs ~faults ~repair:(Repair.config ~surface_blocks:4096 ()) ())
      ~disks:1 Policy.No_pm reqs
  in
  check (Alcotest.float 1e-6) "scrub never delays the foreground"
    no_scrub.Engine.io_time_ms r.Engine.io_time_ms

let test_engine_deadline_failover () =
  (* Certain media errors with a generous retry ladder blow a tight
     deadline: the engine abandons the retries and reads the mirror. *)
  let reqs = List.init 4 (fun _ -> req ~disk:0 ~think:50.0 ()) in
  let faults = Fault_model.make ~classes:[ Fault_model.Media_error ] ~seed:5 ~rate:1.0 () in
  let retry = Policy.retry ~max_attempts:5 ~backoff_base_ms:20.0 () in
  let r, findings =
    simulate_checked ~faults ~retry ~deadline_ms:10.0 ~disks:2 Policy.No_pm reqs
  in
  let d0 = r.Engine.per_disk.(0) and d1 = r.Engine.per_disk.(1) in
  check Alcotest.int "every request fails over" 4 d0.Engine.failovers;
  check Alcotest.int "origin still owns the services" 4 d0.Engine.requests;
  check Alcotest.bool "mirror did real work" true (d1.Engine.busy_ms > 0.0);
  check Alcotest.bool "terminates" true (Float.is_finite r.Engine.makespan_ms);
  conserved findings

let test_engine_deadline_stamps_monotone () =
  (* Found-bug ledger #5: a failed-over miss was stamped at the mirror's
     read completion, past a later request's miss on the origin disk.
     Misses are stamped on their disk's clock, so each disk's deadline
     times never go back. *)
  let reqs =
    List.concat_map
      (fun proc -> List.init 3 (fun _ -> req ~proc ~disk:0 ~think:50.0 ()))
      [ 0; 1 ]
  in
  let faults = Fault_model.make ~classes:[ Fault_model.Media_error ] ~seed:2 ~rate:0.5 () in
  let retry = Policy.retry ~max_attempts:5 ~backoff_base_ms:20.0 () in
  let misses = ref [] in
  let obs =
    Dp_obs.Sink.stream (function
      | Dp_obs.Event.Deadline { disk; at_ms; _ } -> misses := (disk, at_ms) :: !misses
      | _ -> ())
  in
  let r =
    Engine.simulate ~obs ~knobs:(knobs ~faults ~retry ~deadline_ms:10.0 ()) ~disks:2
      Policy.No_pm reqs
  in
  check Alcotest.bool "some request failed over" true
    (r.Engine.per_disk.(0).Engine.failovers > 0);
  check Alcotest.bool "some deadline missed" true (!misses <> []);
  List.iter
    (fun disk ->
      let times =
        List.rev (List.filter_map (fun (d, t) -> if d = disk then Some t else None) !misses)
      in
      check Alcotest.bool
        (Printf.sprintf "disk %d deadline stamps nondecreasing" disk)
        true
        (List.sort Float.compare times = times))
    [ 0; 1 ]

let test_engine_degraded_rebuild_restored () =
  (* A tiny surface and threshold: disk 0 retires after two defects, its
     reads are reconstructed from disk 1, the rebuild stream fills the
     hot spare during think gaps, and the slot returns to service —
     with conservation and contiguity holding through the whole cycle. *)
  (* Think gaps must outlast the hot-spare activation (a full 10.9 s
     spin-up) before rebuild slices can fit, so the cycle completes
     inside the trace. *)
  let reqs = List.init 12 (fun _ -> req ~disk:0 ~think:4_000.0 ()) in
  let faults = Fault_model.make ~classes:[ Fault_model.Media_decay ] ~seed:2 ~rate:1.0 () in
  let repair =
    Repair.config ~surface_blocks:4 ~fail_threshold:2 ~rebuild_blocks:8
      ~rebuild_chunk_blocks:4 ()
  in
  let r, findings = simulate_checked ~faults ~repair ~disks:2 Policy.No_pm reqs in
  let d0 = r.Engine.per_disk.(0) and d1 = r.Engine.per_disk.(1) in
  check Alcotest.bool "disk 0 retired" true (d0.Engine.disk_failures >= 1);
  check Alcotest.bool "a full rebuild completed" true (d0.Engine.rebuilds_completed >= 1);
  check Alcotest.bool "at most the final failure still rebuilding" true
    (d0.Engine.disk_failures - d0.Engine.rebuilds_completed <= 1);
  check Alcotest.bool "rebuild slices copied" true (d0.Engine.rebuild_chunks >= 2);
  check Alcotest.bool "mirror served degraded reads" true (d1.Engine.reconstructions >= 1);
  check Alcotest.int "every request served" 12 (d0.Engine.requests + d1.Engine.requests);
  check Alcotest.bool "disk 0 resumed service after the rebuild" true (d0.Engine.requests > 0);
  conserved findings

(* One validator for flags and records, one arming rule, one spare
   override. *)
let test_knobs_rules () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let decay = Fault_model.make ~classes:[ Fault_model.Media_decay ] ~seed:1 ~rate:0.0 () in
  check Alcotest.bool "no flags, no knobs" true (Knobs.make () = Ok Knobs.none);
  (match Knobs.make ~scrub_ms:40.0 () with
  | Ok { Knobs.repair = Some r; _ } ->
      check (Alcotest.float 0.0) "scrub budget" 40.0 r.Repair.scrub_budget_ms
  | _ -> Alcotest.fail "a positive scrub budget builds a repair config");
  List.iter
    (fun (name, result, needles) ->
      match result with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error msg ->
          List.iter
            (fun needle ->
              check Alcotest.bool (Printf.sprintf "%s names %S (got %S)" name needle msg) true
                (contains ~needle msg))
            needles)
    [
      ("scrub nan", Knobs.make ~scrub_ms:Float.nan (), [ "--scrub-ms"; "nan" ]);
      ("scrub negative", Knobs.make ~scrub_ms:(-1.0) (), [ "--scrub-ms"; "-1" ]);
      ("spare 0", Knobs.make ~spare:0 (), [ "--spare"; "0" ]);
      ("deadline 0", Knobs.make ~deadline_ms:0.0 (), [ "--deadline"; "0" ]);
      ("deadline inf", Knobs.make ~deadline_ms:Float.infinity (), [ "--deadline"; "inf" ]);
      ( "record with a nan rate",
        Knobs.check { Knobs.none with faults = Some { decay with Fault_model.rate = Float.nan } },
        [ "--faults"; "nan" ] );
      ( "record with a nan scrub budget",
        Knobs.check
          {
            Knobs.none with
            repair = Some { Repair.default with Repair.scrub_budget_ms = Float.nan };
          },
        [ "--scrub-ms"; "nan" ] );
    ];
  let explicit = Repair.config ~surface_blocks:8 () in
  List.iter
    (fun (name, k, expected) ->
      check Alcotest.bool name true (Knobs.armed_repair k = expected))
    [
      ("clean knobs arm nothing", Knobs.none, None);
      ("decay arms the default", { Knobs.none with faults = Some decay }, Some Repair.default);
      ("a deadline arms the default", knobs ~deadline_ms:5.0 (), Some Repair.default);
      ( "an explicit config wins",
        knobs ~faults:decay ~repair:explicit (),
        Some explicit );
    ];
  check Alcotest.int "spare override" 7
    (Knobs.model { Knobs.none with spare = Some 7 } m).Disk_model.spare_blocks;
  check Alcotest.bool "no override, same drive" true (Knobs.model Knobs.none m == m)

(* --- a clean surface costs nothing --- *)

(* Words [f ()] allocates: minor words, and words allocated straight on
   the major heap (major words that were not promoted). *)
let words_of f =
  let _, pro0, maj0 = Gc.counters () in
  let min0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let min1 = Gc.minor_words () in
  let _, pro1, maj1 = Gc.counters () in
  (min1 -. min0, maj1 -. maj0 -. (pro1 -. pro0))

(* A map page is allocated by the first defect that grows on it, so a
   decay-free surface never holds one.  The flat byte map that pages
   replaced cost 65,536 bytes per disk on the major heap: Repair.make on
   8 disks allocated 121 minor and 65,552 major words, and 2,000 calls
   ran about 2,190 major collections.  With pages the same call
   allocates 649 minor words, the page arrays and records, and no major
   word. *)
let test_clean_make_allocates_no_page () =
  let minor, major = words_of (fun () -> Repair.make Repair.default ~disks:8) in
  if minor +. major >= 1_000.0 then
    Alcotest.failf "Repair.make on 8 disks: %.0f minor + %.0f major words (bound 1,000)" minor
      major

(* A touch of a clean range returns the shared zero result and leaves
   the counters record alone.  Before pages, every touch copied that
   record and built a result: 14 words a call, 140,000 over these
   10,000.  The bound leaves room for the measurement's own boxed
   float, not for one word a call. *)
let test_clean_touch_allocates_nothing () =
  let t = Repair.make Repair.default ~disks:8 in
  let touches () =
    for i = 0 to 9_999 do
      ignore
        (Sys.opaque_identity
           (Repair.touch t ~disk:(i land 7) ~spare:256 ~lba:(i * 65_536) ~bytes:65_536))
    done
  in
  let minor, major = words_of touches in
  if minor +. major >= 16.0 then
    Alcotest.failf "10,000 clean touches: %.0f minor + %.0f major words" minor major

(* A decay-free replay armed by a deadline or a scrub budget grows no
   defect, so it allocates no map page.  Beyond the clean run and
   Repair.make, the deadline run on this 2,000-request trace allocates
   4,014 minor words, 2 a request, and the scrub run 59,599, about 18
   more for each of its 2,967 chunks (the chunk's prices and the peek
   and commit results); neither allocates on the major heap beyond the
   clean run.  When the issue loop scanned the group's disks with a
   closure over the issue time and every scrub chunk copied a counters
   record, the two runs allocated 20,014 and 108,236 minor words, which
   the bound of 3 words a request and 22 a chunk refuses.  With flat
   maps they allocated 48,014 and 136,236 minor words (a touch copied
   the counters record and built its result) and 65,552 major words,
   the 8 maps. *)
let test_clean_armed_replay_allocates_no_page () =
  let trace =
    Dp_trace.Trace.of_list
      (List.init 2_000 (fun i ->
           req ~proc:(i mod 2) ~disk:(i mod 8) ~lba:(i * 65_536)
             ~think:(if i mod 25 = 24 then 2_000.0 else 1.0)
             ()))
  in
  let n = float_of_int (Dp_trace.Trace.length trace) in
  let run knobs () = Engine.replay ~knobs ~disks:8 Policy.default_tpm trace in
  ignore (run Knobs.none ());
  let clean_minor, clean_major = words_of (run Knobs.none) in
  let make_minor, _ = words_of (fun () -> Repair.make Repair.default ~disks:8) in
  List.iter
    (fun (name, knobs) ->
      let r = run knobs () in
      let chunks =
        Array.fold_left (fun c (d : Engine.disk_stats) -> c + d.scrub_chunks) 0 r.Engine.per_disk
      in
      let minor, major = words_of (run knobs) in
      let extra = minor -. clean_minor -. make_minor and extra_major = major -. clean_major in
      let bound = (3.0 *. n) +. (22.0 *. float_of_int chunks) in
      if extra_major > 0.0 || extra > bound then
        Alcotest.failf "%s: %.0f minor words (bound %.0f) and %.0f major words beyond clean"
          name extra bound extra_major)
    [
      ("deadline", knobs ~deadline_ms:1_000.0 ());
      ("scrub", knobs ~repair:(Repair.config ~scrub_budget_ms:40.0 ()) ());
    ]

(* --- cross-domain determinism (satellite S3) --- *)

let decay_spec_gen =
  QCheck2.Gen.(pair (int_range 0 100_000) (map (fun r -> float_of_int r /. 100.0) (int_range 0 40)))

(* The decay stream and the maps it grows are a pure function of the
   fault spec: driving the injector+repair state machine on worker
   domains must reproduce the jobs-1 digests exactly. *)
let prop_decay_maps_domain_independent =
  qtest ~count:10 "Repair: decay maps byte-identical under jobs 1 vs 8" decay_spec_gen
    (fun (seed, rate) ->
      let drive copy =
        let faults =
          Fault_model.make ~classes:[ Fault_model.Media_decay ] ~seed:(seed + copy) ~rate ()
        in
        let inj = Injector.make faults ~disks:4 in
        let t = Repair.make (Repair.config ~surface_blocks:128 ()) ~disks:4 in
        let touches =
          List.init 400 (fun i ->
              let d = i mod 4 in
              (match Injector.decay_defect inj ~disk:d ~surface:128 with
              | Some b -> Repair.grow t ~disk:d ~block:b
              | None -> ());
              Repair.touch t ~disk:d ~spare:16 ~lba:(i * 37 mod 128 * 4096) ~bytes:8192)
        in
        (touches, List.init 4 (fun d -> (Repair.map_digest t d, Repair.spare_used t d)))
      in
      let copies = [ 0; 1; 2; 3 ] in
      Domain_pool.map ~jobs:1 drive copies = Domain_pool.map ~jobs:8 drive copies)

let prop_simulate_domain_independent =
  qtest ~count:8 "Engine: decay/repair runs byte-identical under jobs 1 vs 8" decay_spec_gen
    (fun (seed, rate) ->
      let reqs =
        List.init 30 (fun i ->
            req ~disk:(i mod 3) ~lba:(i * 65536) ~think:(float_of_int (20 + (i * 13 mod 400))) ())
      in
      let run copy =
        let faults = Fault_model.make ~seed:(seed + copy) ~rate () in
        let repair = Repair.config ~surface_blocks:64 ~fail_threshold:8 () in
        Engine.simulate
          ~knobs:(knobs ~faults ~repair ~deadline_ms:1000.0 ())
          ~disks:3 Policy.default_tpm reqs
      in
      let copies = [ 0; 1; 2; 3 ] in
      Domain_pool.map ~jobs:1 run copies = Domain_pool.map ~jobs:8 run copies)

let suites =
  [
    ( "repair.badmap",
      [
        Alcotest.test_case "status transitions" `Quick test_badmap_statuses;
        Alcotest.test_case "digest" `Quick test_badmap_digest;
        Alcotest.test_case "digest pinned" `Quick test_badmap_digest_pinned;
        prop_badmap_model;
      ] );
    ( "repair.state",
      [
        Alcotest.test_case "config validation" `Quick test_repair_config_validation;
        Alcotest.test_case "remap then penalty" `Quick test_repair_touch_remap_then_penalty;
        Alcotest.test_case "spare exhaustion" `Quick test_repair_spare_exhaustion_fails_with_mirror;
        Alcotest.test_case "threshold and mirrors" `Quick test_repair_threshold_and_mirror_pairs;
        Alcotest.test_case "rebuild cycle" `Quick test_repair_rebuild_cycle;
        Alcotest.test_case "scrub cursor" `Quick test_repair_scrub_cursor;
      ] );
    ( "repair.engine",
      [
        Alcotest.test_case "exact remap accounting" `Quick test_engine_remap_accounting;
        Alcotest.test_case "scrub in idle gaps" `Quick test_engine_scrub_in_gaps;
        Alcotest.test_case "deadline failover" `Quick test_engine_deadline_failover;
        Alcotest.test_case "deadline stamps monotone per disk" `Quick
          test_engine_deadline_stamps_monotone;
        Alcotest.test_case "degraded, rebuild, restored" `Quick
          test_engine_degraded_rebuild_restored;
        Alcotest.test_case "knobs: one validator, one arming rule" `Quick test_knobs_rules;
      ] );
    ( "repair.alloc",
      [
        Alcotest.test_case "Repair.make allocates no page" `Quick test_clean_make_allocates_no_page;
        Alcotest.test_case "a clean touch allocates nothing" `Quick
          test_clean_touch_allocates_nothing;
        Alcotest.test_case "a decay-free armed replay allocates no page" `Quick
          test_clean_armed_replay_allocates_no_page;
      ] );
    ( "repair.domains",
      [ prop_decay_maps_domain_independent; prop_simulate_domain_independent ] );
  ]
