let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Unique-enough temp name in the destination's own directory: rename
   must not cross a filesystem boundary.  The pid keeps concurrent
   processes apart; the counter keeps concurrent in-process writers
   apart. *)
let tmp_counter = Atomic.make 0

let tmp_for path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)

(* Best effort: directory fsync is what makes the rename itself durable,
   but not every filesystem supports opening a directory for it. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let atomic_out ?(fsync = false) path write =
  let tmp = tmp_for path in
  let oc = open_out_bin tmp in
  match
    write oc;
    flush oc;
    if fsync then Unix.fsync (Unix.descr_of_out_channel oc)
  with
  | () ->
      close_out oc;
      Sys.rename tmp path;
      if fsync then fsync_dir (Filename.dirname path)
  | exception e ->
      (try close_out oc with _ -> ());
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let atomic_write ?fsync path data =
  atomic_out ?fsync path (fun oc -> output_string oc data)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (match Sys.readdir path with exception Sys_error _ -> [||] | names -> names);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
