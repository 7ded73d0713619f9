(* Spawning the CLI under test, one process at a time. *)

external wait4 : int -> int * float * int = "perf_wait4"
external now : unit -> float = "perf_now"

type outcome = { code : int; wall_s : float; cpu_s : float; rss_mb : float }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* A fresh empty directory at [dir]. *)
let fresh_dir dir =
  rm_rf dir;
  mkdir_p dir

(* The environment with TMPDIR pointed at [tmp]: nothing the child
   writes lands outside the benchmark's own directories. *)
let env_with_tmpdir tmp =
  let keep s = not (String.length s >= 7 && String.sub s 0 7 = "TMPDIR=") in
  Array.append
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
    [| "TMPDIR=" ^ tmp |]

(* Run [prog args] with stdout to [stdout] and stderr to [stderr]
   (both truncated), stdin from /dev/null and TMPDIR at a fresh [tmp]
   directory, which is removed afterwards.  Times the child alone. *)
let run ~tmp ~stdout ~stderr prog args =
  fresh_dir tmp;
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] in
  let out = Unix.openfile stdout flags 0o644 in
  let err = Unix.openfile stderr flags 0o644 in
  let nul = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; err; nul ])
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) (env_with_tmpdir tmp)
          nul out err)
  in
  let code, cpu_s, rss_kb = wait4 pid in
  let wall_s = now () -. t0 in
  rm_rf tmp;
  { code; wall_s; cpu_s; rss_mb = float_of_int rss_kb /. 1024. }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* This process's peak RSS (VmHWM) in MB.  A spawned child's ru_maxrss
   starts from the spawning process's peak (Linux records the old
   address space's high-water mark at exec), so a child's peak only
   measures the child when it exceeds this. *)
let own_peak_mb () =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> 0.
