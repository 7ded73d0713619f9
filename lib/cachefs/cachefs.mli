(** Crash-safe persistent stage cache.

    A content-addressed on-disk store for expensive pipeline artifacts
    (traces, hint streams), shared by every [dpcc] invocation.  The
    store must survive what the fault simulations in {!Dp_faults} throw
    at real disks — interrupted writes, bit rot, concurrent writers —
    so every entry is:

    - written to a temporary file, flushed, [fsync]ed and atomically
      renamed into place (a reader sees a complete entry or none);
    - framed with a versioned header and an MD5 checksum trailer, both
      verified on read;
    - guarded by an advisory lock file while being published, so
      concurrent invocations never interleave writes.

    {b Failure contract}: no operation raises.  A missing entry is a
    miss; a short, bit-flipped, version-skewed or otherwise undecodable
    entry is {e quarantined} (renamed to [*.corrupt], never read again)
    and counted as corrupt; a write that cannot complete (lock timeout,
    [ENOSPC], permissions) is dropped.  Callers always fall back to
    recomputing in memory — the cache can only ever cost a rebuild,
    never correctness.  Every outcome increments a counter. *)

type t
(** An open store rooted at one directory. *)

val format_version : int
(** On-disk entry format version.  It participates in both the entry
    file header and the content address, so a version bump orphans old
    entries instead of misreading them.  Bump it whenever the framing
    {e or} the byte meaning of any cached payload changes. *)

val default_dir : unit -> string
(** The store location when the caller gives none: [$DPOWER_CACHE_DIR]
    if set, else [$XDG_CACHE_HOME/dpower], else [$HOME/.cache/dpower],
    else a [dpower] directory under the system temp dir. *)

val open_store : ?lock_timeout_ms:int -> dir:string -> unit -> (t, string) result
(** Open (creating if needed) a store at [dir].  [lock_timeout_ms]
    (default 2000) bounds how long a writer waits for the advisory lock
    before dropping its write.
    [Error] only when the directory cannot be created or is not
    writable — callers should degrade to running uncached. *)

val dir : t -> string

val key : parts:string list -> string
(** The content address of an entry: a hex digest over [parts] and
    {!format_version}.  Parts order is significant. *)

(** {1 Entries} *)

val get : t -> key:string -> decode:(string -> 'a option) -> 'a option
(** The decoded payload of an entry, or [None] for a miss.  The entry is
    read and verified first; [decode] (which must not raise) then sees
    the verified payload, and only a payload it accepts counts as a hit.
    Any integrity failure — unreadable file, truncation, checksum
    mismatch, header version skew — and any payload [decode] refuses
    (a format drift the key did not capture) quarantines the entry,
    counts it as corrupt and returns [None].  Reads take no lock:
    writers only ever publish whole files by atomic rename, so a reader
    sees the old entry or the new one, never a mixture. *)

val put : t -> key:string -> string -> unit
(** Publish a payload under [key], replacing any previous entry.
    Best-effort: on lock timeout or any I/O failure the write is
    dropped (counted in [write_failures]) and the store is left exactly
    as it was. *)

(** {1 Accounting} *)

type counters = {
  hits : int;
  misses : int;
  corrupt : int;  (** entries quarantined after failing verification or decoding *)
  write_failures : int;  (** puts dropped (lock timeout, I/O error) *)
}

val counters : t -> counters
(** This store handle's cumulative operation counts (process-local). *)

val save_run_counters : t -> unit
(** Persist {!counters} to a [last-run.stats] file in the store
    directory (atomically; best-effort) so [dpcc cache stat] can report
    the previous invocation's hit rates. *)

val load_run_counters : dir:string -> counters option
(** The counters of the last completed run, if any. *)

(** {1 Store maintenance (static — no open store needed)} *)

type usage = {
  entries : int;
  bytes : int;  (** total size of live entries *)
  quarantined : int;  (** [*.corrupt] files awaiting inspection *)
  temp : int;  (** leftover [*.tmp*] files (crashed writers) *)
}

val usage : dir:string -> usage
(** Scan a store directory: names and sizes only, no entry is opened.
    All zero when the directory is missing. *)

val clear : dir:string -> int
(** Remove every entry, quarantined file, temporary file and stats
    file; returns the number of {e entries} removed.  The directory
    itself and its lock file are kept.  0 when the directory is
    missing. *)
