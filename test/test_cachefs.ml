(* Tests for the crash-safe persistent stage cache: framing round-trips,
   graceful degradation under injected corruption (truncation, bit
   flips, version skew), quarantine, residue-free stores, and the static
   stat/clear maintenance operations. *)

module Cachefs = Dp_cachefs.Cachefs
module Splitmix = Dp_util.Splitmix

let check = Alcotest.check

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A fresh scratch store per test; everything lives under the system
   temp dir, no shared state between tests. *)
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dpower-cachefs-test-%d-%d" (Unix.getpid ()) !dir_counter)

let with_store f =
  let dir = fresh_dir () in
  match Cachefs.open_store ~dir () with
  | Error msg -> Alcotest.failf "open_store %s: %s" dir msg
  | Ok store -> f dir store

(* Every payload decodes: the store's own framing is under test. *)
let get store ~key = Cachefs.get store ~key ~decode:Option.some

let entry_file dir =
  Array.to_list (Sys.readdir dir)
  |> List.find_opt (fun n ->
         String.length n > 6 && String.sub n 0 6 = "entry-" && Filename.check_suffix n ".bin")
  |> function
  | Some n -> Filename.concat dir n
  | None -> Alcotest.fail "no entry file in store"

let no_residue dir =
  Array.iter
    (fun n ->
      let is_sub pat =
        let lp = String.length pat and ln = String.length n in
        let rec go i = i + lp <= ln && (String.sub n i lp = pat || go (i + 1)) in
        go 0
      in
      if is_sub ".tmp." then Alcotest.failf "temp residue: %s" n;
      if n = "lock" then Alcotest.failf "lock residue: %s" n)
    (Sys.readdir dir)

let test_roundtrip () =
  with_store @@ fun dir store ->
  let key = Cachefs.key ~parts:[ "digest"; "trace"; "original"; "1" ] in
  check Alcotest.(option string) "empty store misses" None (get store ~key);
  (* Binary-safe payload: newlines, NULs, high bytes. *)
  let payload = "line1\nline2\x00\xff\n" in
  Cachefs.put store ~key payload;
  check Alcotest.(option string) "roundtrip" (Some payload) (get store ~key);
  let k = Cachefs.counters store in
  check Alcotest.int "one hit" 1 k.Cachefs.hits;
  check Alcotest.int "one miss" 1 k.Cachefs.misses;
  check Alcotest.int "no corruption" 0 k.Cachefs.corrupt;
  check Alcotest.int "no dropped writes" 0 k.Cachefs.write_failures;
  no_residue dir

let test_persistence () =
  with_store @@ fun dir store ->
  let key = Cachefs.key ~parts:[ "shared" ] in
  Cachefs.put store ~key "payload";
  (* A second handle on the same directory — a later process. *)
  match Cachefs.open_store ~dir () with
  | Error msg -> Alcotest.fail msg
  | Ok store2 ->
      check Alcotest.(option string) "entry survives reopen" (Some "payload")
        (get store2 ~key);
      check Alcotest.int "hit counted on new handle" 1 (Cachefs.counters store2).Cachefs.hits

let test_distinct_keys () =
  with_store @@ fun _dir store ->
  let k1 = Cachefs.key ~parts:[ "a"; "b" ] and k2 = Cachefs.key ~parts:[ "ab" ] in
  if String.equal k1 k2 then Alcotest.fail "part boundaries must affect the key";
  Cachefs.put store ~key:k1 "one";
  Cachefs.put store ~key:k2 "two";
  check Alcotest.(option string) "k1" (Some "one") (get store ~key:k1);
  check Alcotest.(option string) "k2" (Some "two") (get store ~key:k2)

(* The tentpole property: whatever a fault does to the entry's bytes,
   [get] never crashes and never returns wrong data — it quarantines and
   misses, and the store recovers on the next write. *)
let mutate_entry rng path =
  let data =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  match Splitmix.int rng ~bound:4 with
  | 0 ->
      (* Truncate: a crashed writer that never reached the rename would
         not leave this, but a torn disk might. *)
      let keep = Splitmix.int rng ~bound:(String.length data) in
      write (String.sub data 0 keep);
      "truncate"
  | 1 ->
      (* Flip one bit somewhere. *)
      let i = Splitmix.int rng ~bound:(String.length data) in
      let bit = Splitmix.int rng ~bound:8 in
      let b = Bytes.of_string data in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      write (Bytes.to_string b);
      "bit-flip"
  | 2 ->
      (* Version skew: a file from a future/past format. *)
      let nl = String.index data '\n' in
      write
        (Printf.sprintf "dpowercache %d%s"
           (Cachefs.format_version + 1 + Splitmix.int rng ~bound:5)
           (String.sub data nl (String.length data - nl)));
      "version-skew"
  | _ ->
      (* Trailing garbage after the checksum line. *)
      write (data ^ "garbage");
      "append"

let corruption_prop seed =
  let rng = Splitmix.create seed in
  with_store @@ fun dir store ->
  let key = Cachefs.key ~parts:[ "prog"; string_of_int seed ] in
  let payload = String.init (1 + Splitmix.int rng ~bound:4096) (fun _ ->
      Char.chr (Splitmix.int rng ~bound:256))
  in
  Cachefs.put store ~key payload;
  let path = entry_file dir in
  let kind = mutate_entry rng path in
  (match get store ~key with
  | None -> ()
  | Some got ->
      (* A mutation may leave the entry intact only if the bytes still
         verify — then they must be the original payload (a bit flip
         cannot produce a valid frame with different content). *)
      if not (String.equal got payload) then
        QCheck2.Test.fail_reportf "%s returned wrong payload" kind);
  (match get store ~key with
  | Some got when not (String.equal got payload) ->
      QCheck2.Test.fail_reportf "%s: second read returned wrong payload" kind
  | _ -> ());
  let k = Cachefs.counters store in
  if k.Cachefs.corrupt > 0 then begin
    (* Quarantined, not deleted: the corpse is kept for inspection and
       never re-read. *)
    if not (Sys.file_exists (path ^ ".corrupt")) then
      QCheck2.Test.fail_reportf "%s: corrupt entry not quarantined" kind;
    if Sys.file_exists path then
      QCheck2.Test.fail_reportf "%s: corrupt entry still live" kind
  end;
  (* Recovery: a rewrite publishes a fresh verified entry. *)
  Cachefs.put store ~key payload;
  (match get store ~key with
  | Some got when String.equal got payload -> ()
  | _ -> QCheck2.Test.fail_reportf "%s: store did not recover after rewrite" kind);
  no_residue dir;
  true

let test_version_skew_counts () =
  with_store @@ fun dir store ->
  let key = Cachefs.key ~parts:[ "skew" ] in
  Cachefs.put store ~key "payload";
  let path = entry_file dir in
  let data = Dp_util.Fsx.read_file path in
  let nl = String.index data '\n' in
  let oc = open_out_bin path in
  output_string oc
    (Printf.sprintf "dpowercache %d%s" (Cachefs.format_version + 1)
       (String.sub data nl (String.length data - nl)));
  close_out oc;
  check Alcotest.(option string) "skewed entry misses" None (get store ~key);
  check Alcotest.int "counted as corrupt" 1 (Cachefs.counters store).Cachefs.corrupt;
  check Alcotest.bool "quarantined" true (Sys.file_exists (path ^ ".corrupt"))

let test_undecodable_payload () =
  with_store @@ fun dir store ->
  let key = Cachefs.key ~parts:[ "undecodable" ] in
  Cachefs.put store ~key "frame verifies, payload does not decode";
  let path = entry_file dir in
  check Alcotest.(option string) "refused payload misses" None
    (Cachefs.get store ~key ~decode:(fun _ -> None));
  check Alcotest.bool "quarantined" true (Sys.file_exists (path ^ ".corrupt"));
  check Alcotest.(option string) "entry gone" None (get store ~key);
  let k = Cachefs.counters store in
  check Alcotest.int "one corrupt eviction" 1 k.Cachefs.corrupt;
  check Alcotest.int "no hit" 0 k.Cachefs.hits;
  no_residue dir

let test_open_store_failure () =
  (* A directory that cannot exist: its parent is a file. *)
  match Cachefs.open_store ~dir:"/dev/null/store" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "open_store under /dev/null must fail"

let test_default_dir_env () =
  let saved v = Option.value (Sys.getenv_opt v) ~default:"" in
  let restore =
    let e = saved "DPOWER_CACHE_DIR" and x = saved "XDG_CACHE_HOME" in
    fun () ->
      Unix.putenv "DPOWER_CACHE_DIR" e;
      Unix.putenv "XDG_CACHE_HOME" x
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "DPOWER_CACHE_DIR" "/explicit/cache";
      check Alcotest.string "DPOWER_CACHE_DIR wins" "/explicit/cache" (Cachefs.default_dir ());
      Unix.putenv "DPOWER_CACHE_DIR" "";
      Unix.putenv "XDG_CACHE_HOME" "/xdg";
      check Alcotest.string "XDG fallback"
        (Filename.concat "/xdg" "dpower")
        (Cachefs.default_dir ()))

let test_usage_and_clear () =
  with_store @@ fun dir store ->
  Cachefs.put store ~key:(Cachefs.key ~parts:[ "a" ]) "aaaa";
  Cachefs.put store ~key:(Cachefs.key ~parts:[ "b" ]) "bbbbbbbb";
  Cachefs.save_run_counters store;
  let u = Cachefs.usage ~dir in
  check Alcotest.int "two entries" 2 u.Cachefs.entries;
  check Alcotest.bool "bytes counted" true (u.Cachefs.bytes > 12);
  check Alcotest.int "nothing quarantined" 0 u.Cachefs.quarantined;
  check Alcotest.int "no temp files" 0 u.Cachefs.temp;
  (match Cachefs.load_run_counters ~dir with
  | None -> Alcotest.fail "saved counters not readable"
  | Some k -> check Alcotest.int "saved misses" 0 k.Cachefs.misses);
  check Alcotest.int "clear removes both" 2 (Cachefs.clear ~dir);
  let u = Cachefs.usage ~dir in
  check Alcotest.int "store empty" 0 u.Cachefs.entries;
  check Alcotest.(option reject) "stats file cleared" None
    (Option.map ignore (Cachefs.load_run_counters ~dir))

let test_missing_dir_maintenance () =
  let dir = fresh_dir () in
  let u = Cachefs.usage ~dir in
  check Alcotest.int "usage of missing dir" 0 (u.Cachefs.entries + u.Cachefs.bytes);
  check Alcotest.int "clear of missing dir" 0 (Cachefs.clear ~dir)

(* A contended advisory lock: lockf locks are per-process, so a helper
   process ([lockholder.exe] — spawned, not forked: OCaml 5 forbids
   fork once another suite has created a domain) holds the store lock
   while our put times out.  The put must degrade: counted as a dropped
   write, store untouched. *)
let test_lock_timeout () =
  let dir = fresh_dir () in
  match Cachefs.open_store ~lock_timeout_ms:100 ~dir () with
  | Error msg -> Alcotest.failf "open_store %s: %s" dir msg
  | Ok store ->
      let lock = Filename.concat dir "lock" in
      let r, w = Unix.pipe () in
      let holder =
        Filename.concat (Filename.dirname Sys.executable_name) "lockholder.exe"
      in
      let pid = Unix.create_process holder [| holder; lock |] Unix.stdin w Unix.stderr in
      Fun.protect
        ~finally:(fun () ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Unix.close r;
          Unix.close w)
        (fun () ->
          (* Wait until the holder actually has the lock. *)
          ignore (Unix.read r (Bytes.create 1) 0 1);
          Cachefs.put store ~key:"contended" "payload";
          check Alcotest.int "dropped write counted" 1
            (Cachefs.counters store).Cachefs.write_failures;
          check Alcotest.bool "entry was not written" true (get store ~key:"contended" = None))

let suites =
  [
    ( "cachefs",
      [
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "persistence across handles" `Quick test_persistence;
        Alcotest.test_case "key part boundaries" `Quick test_distinct_keys;
        qtest ~count:200 "corruption never crashes, never lies" QCheck2.Gen.nat
          corruption_prop;
        Alcotest.test_case "version skew quarantines" `Quick test_version_skew_counts;
        Alcotest.test_case "undecodable payload quarantines" `Quick test_undecodable_payload;
        Alcotest.test_case "unusable directory is an Error" `Quick test_open_store_failure;
        Alcotest.test_case "default dir from environment" `Quick test_default_dir_env;
        Alcotest.test_case "usage and clear" `Quick test_usage_and_clear;
        Alcotest.test_case "maintenance on missing dir" `Quick test_missing_dir_maintenance;
        Alcotest.test_case "lock timeout degrades" `Quick test_lock_timeout;
      ] );
  ]
