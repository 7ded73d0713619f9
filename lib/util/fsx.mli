(** Crash-safe filesystem helpers.

    Artifacts the tools leave behind — cache entries, JSON reports,
    observability logs — must never be observable half-written: a
    reader either sees the previous complete file or the new complete
    file.  Every writer here goes through the same protocol: write to a
    temporary file in the {e same directory} (rename is only atomic
    within a filesystem), flush, optionally [fsync], then atomically
    rename over the destination.  On any failure the temporary file is
    removed and the destination is untouched. *)

val mkdirs : string -> unit
(** [mkdir -p]: create the directory and its missing parents.  Existing
    directories (including concurrent creation) are not an error.
    @raise Unix.Unix_error when a component cannot be created. *)

val atomic_write : ?fsync:bool -> string -> string -> unit
(** [atomic_write path data] publishes [data] at [path] via
    write-to-temp + rename.  [fsync] (default [false]) forces the data
    to stable storage before the rename, and best-effort syncs the
    directory after it, so a crash straddling the rename cannot leave a
    reachable-but-empty file.  Raises the underlying [Sys_error] /
    [Unix.Unix_error] on failure (temp file already cleaned up). *)

val atomic_out : ?fsync:bool -> string -> (out_channel -> unit) -> unit
(** Like {!atomic_write}, but the caller streams into the temporary
    file's channel.  The destination appears only if the writer returns
    normally. *)

val read_file : string -> string
(** The whole (binary) file contents, read to end of file.  @raise
    Sys_error, also when [path] names a directory. *)

val remove_tree : string -> unit
(** Recursively delete a file or directory tree, best-effort: entries
    that cannot be removed (permissions, concurrent deletion) are
    skipped silently and a missing [path] is not an error.  Symbolic
    links are removed, never followed. *)
