module Fsx = Dp_util.Fsx

let format_version = 1
let magic = "dpowercache"

type counters = { hits : int; misses : int; corrupt : int; write_failures : int }

type t = {
  dir : string;
  lock_timeout_ms : int;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable write_failures : int;
}

let dir t = t.dir

let default_dir () =
  let nonempty = function Some s when s <> "" -> Some s | _ -> None in
  match nonempty (Sys.getenv_opt "DPOWER_CACHE_DIR") with
  | Some d -> d
  | None -> (
      match nonempty (Sys.getenv_opt "XDG_CACHE_HOME") with
      | Some d -> Filename.concat d "dpower"
      | None -> (
          match nonempty (Sys.getenv_opt "HOME") with
          | Some home -> Filename.concat (Filename.concat home ".cache") "dpower"
          | None -> Filename.concat (Filename.get_temp_dir_name ()) "dpower"))

let open_store ?(lock_timeout_ms = 2000) ~dir () =
  match
    Fsx.mkdirs dir;
    (* Probe writability now so every later failure is just a dropped
       write rather than a store that silently never works. *)
    let probe = Filename.concat dir (Printf.sprintf ".probe.%d" (Unix.getpid ())) in
    let oc = open_out_bin probe in
    close_out oc;
    Sys.remove probe
  with
  | () ->
      Ok { dir; lock_timeout_ms; hits = 0; misses = 0; corrupt = 0; write_failures = 0 }
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cache dir %s: %s" dir (Unix.error_message e))
  | exception Sys_error msg -> Error msg

let key ~parts =
  Digest.to_hex (Digest.string (String.concat "\x00" (string_of_int format_version :: parts)))

let entry_path t key = Filename.concat t.dir ("entry-" ^ key ^ ".bin")

(* --- advisory lock ---

   One lock file per store, exclusive fcntl lock while a writer
   publishes.  The file is unlinked on release so a clean store carries
   no residue; the unlink/re-create race is closed by re-checking after
   acquisition that the fd still names the path's inode (the standard
   lockfile-with-unlink protocol). *)

let lock_path t = Filename.concat t.dir "lock"

let same_inode (a : Unix.stats) (b : Unix.stats) =
  a.Unix.st_ino = b.Unix.st_ino && a.Unix.st_dev = b.Unix.st_dev

let acquire_lock t =
  let path = lock_path t in
  let deadline = Unix.gettimeofday () +. (float_of_int t.lock_timeout_ms /. 1000.) in
  let rec go () =
    match Unix.openfile path [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644 with
    | exception Unix.Unix_error _ -> None
    | fd -> (
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () ->
            (* Locked — but if another process unlinked the file between
               our open and our lock, the lock protects a dead inode. *)
            if
              match Unix.stat path with
              | st -> same_inode st (Unix.fstat fd)
              | exception Unix.Unix_error _ -> false
            then Some fd
            else begin
              Unix.close fd;
              retry ()
            end
        | exception Unix.Unix_error ((Unix.EACCES | Unix.EAGAIN), _, _) ->
            Unix.close fd;
            retry ()
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            None)
  and retry () =
    if Unix.gettimeofday () >= deadline then None
    else begin
      (try Unix.sleepf 0.005 with Unix.Unix_error _ -> ());
      go ()
    end
  in
  go ()

let release_lock t fd =
  (try Unix.unlink (lock_path t) with Unix.Unix_error _ -> ());
  (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- entry framing ---

   entry := "dpowercache <version>\n" "<payload-length>\n" payload
            "<md5-hex-of-payload>\n"
   Verified strictly on read: magic, version, exact length, checksum,
   and nothing after the trailer. *)

let frame payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b (Printf.sprintf "%s %d\n" magic format_version);
  Buffer.add_string b (Printf.sprintf "%d\n" (String.length payload));
  Buffer.add_string b payload;
  Buffer.add_string b (Digest.to_hex (Digest.string payload));
  Buffer.add_char b '\n';
  Buffer.contents b

exception Corrupt of string

let parse_frame data =
  let len = String.length data in
  let line_end from =
    match String.index_from_opt data from '\n' with
    | Some i -> i
    | None -> raise (Corrupt "truncated header")
  in
  let e1 = line_end 0 in
  (match String.split_on_char ' ' (String.sub data 0 e1) with
  | [ m; v ] when m = magic ->
      if int_of_string_opt v <> Some format_version then raise (Corrupt "format version skew")
  | _ -> raise (Corrupt "bad magic"));
  let e2 = line_end (e1 + 1) in
  let payload_len =
    match int_of_string_opt (String.sub data (e1 + 1) (e2 - e1 - 1)) with
    | Some n when n >= 0 -> n
    | _ -> raise (Corrupt "bad length")
  in
  let payload_start = e2 + 1 in
  (* 32 hex digest chars + final newline *)
  if len <> payload_start + payload_len + 33 then raise (Corrupt "short read");
  let payload = String.sub data payload_start payload_len in
  let digest = String.sub data (payload_start + payload_len) 32 in
  if data.[len - 1] <> '\n' then raise (Corrupt "bad trailer");
  if not (String.equal digest (Digest.to_hex (Digest.string payload))) then
    raise (Corrupt "checksum mismatch");
  payload

let quarantine path =
  try Sys.rename path (path ^ ".corrupt")
  with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ())

(* Read and verify an entry apart from [get], so the raw file bytes are
   unreachable by the time the payload is decoded; keeping them alive
   across the decode raises a warm report's peak RSS. *)
let read_payload path =
  match parse_frame (Fsx.read_file path) with
  | payload -> Some payload
  | exception (Corrupt _ | Sys_error _ | End_of_file) -> None

let get t ~key ~decode =
  let path = entry_path t key in
  if not (Sys.file_exists path) then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    match Option.bind (read_payload path) decode with
    | Some _ as v ->
        t.hits <- t.hits + 1;
        v
    | None ->
        quarantine path;
        t.corrupt <- t.corrupt + 1;
        None

let put t ~key payload =
  match acquire_lock t with
  | None -> t.write_failures <- t.write_failures + 1
  | Some fd ->
      Fun.protect
        ~finally:(fun () -> release_lock t fd)
        (fun () ->
          try Fsx.atomic_write ~fsync:true (entry_path t key) (frame payload)
          with Sys_error _ | Unix.Unix_error _ -> t.write_failures <- t.write_failures + 1)

let counters t =
  { hits = t.hits; misses = t.misses; corrupt = t.corrupt; write_failures = t.write_failures }

(* --- persisted last-run counters --- *)

let stats_file dir = Filename.concat dir "last-run.stats"

let save_run_counters t =
  let c = counters t in
  try
    Fsx.atomic_write (stats_file t.dir)
      (Printf.sprintf "hits %d\nmisses %d\ncorrupt %d\nwrite_failures %d\n" c.hits c.misses
         c.corrupt c.write_failures)
  with Sys_error _ | Unix.Unix_error _ -> ()

let load_run_counters ~dir =
  match Fsx.read_file (stats_file dir) with
  | exception Sys_error _ -> None
  | data -> (
      let field name line =
        match String.split_on_char ' ' line with
        | [ n; v ] when n = name -> int_of_string_opt v
        | _ -> None
      in
      match String.split_on_char '\n' data with
      | h :: m :: c :: w :: _ -> (
          match (field "hits" h, field "misses" m, field "corrupt" c, field "write_failures" w)
          with
          | Some hits, Some misses, Some corrupt, Some write_failures ->
              Some { hits; misses; corrupt; write_failures }
          | _ -> None)
      | _ -> None)

(* --- static maintenance --- *)

type usage = { entries : int; bytes : int; quarantined : int; temp : int }

let is_entry name =
  String.length name > 10
  && String.sub name 0 6 = "entry-"
  && Filename.check_suffix name ".bin"

let is_quarantined name = Filename.check_suffix name ".corrupt"

let is_temp name =
  (* Fsx temp files: "<dest>.tmp.<pid>.<n>" *)
  let rec has_tmp i =
    i >= 0
    && (String.length name - i >= 5
        && String.sub name i 5 = ".tmp."
       || has_tmp (i - 1))
  in
  has_tmp (String.length name - 5)

let scan dir = match Sys.readdir dir with exception Sys_error _ -> [||] | names -> names

let usage ~dir =
  Array.fold_left
    (fun acc name ->
      if is_temp name then { acc with temp = acc.temp + 1 }
      else if is_quarantined name then { acc with quarantined = acc.quarantined + 1 }
      else if is_entry name then
        let size =
          match (Unix.stat (Filename.concat dir name)).Unix.st_size with
          | n -> n
          | exception Unix.Unix_error _ -> 0
        in
        { acc with entries = acc.entries + 1; bytes = acc.bytes + size }
      else acc)
    { entries = 0; bytes = 0; quarantined = 0; temp = 0 }
    (scan dir)

let clear ~dir =
  Array.fold_left
    (fun removed name ->
      let stale =
        is_entry name || is_quarantined name || is_temp name
        || name = Filename.basename (stats_file dir)
      in
      if stale then (
        (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
        if is_entry name then removed + 1 else removed)
      else removed)
    0 (scan dir)
