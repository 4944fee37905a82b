(** SLM-DB (Kaiyrakhmet et al., FAST'19) substitute: a single-level
    key-value store with an NVM-resident memtable (no WAL — the memtable
    itself is persistent), a global persistent B+-tree index mapping every
    key to its (SSTable, block) position on SSD, and selective compaction
    that merges overlapping tables when the level grows.

    Matching the open-source artifact the paper evaluated (§7.4): single
    threaded — flushes and compactions run inline on the caller — and
    reads go through the OS page cache (no O_DIRECT), modeled as a large
    DRAM block cache. *)

type t

val create :
  Prism_sim.Engine.t ->
  cost:Prism_device.Cost.t ->
  rng:Prism_sim.Rng.t ->
  nvm:Prism_device.Model.t ->
  data:Target.t ->
  memtable_bytes:int ->
  page_cache_bytes:int ->
  compaction_threshold:int ->
  t

val put : t -> string -> bytes -> unit

val remove : t -> string -> unit

(** [remove_existed t key] writes a tombstone and reports whether the key
    held a live value immediately before it. The memtable is re-probed in
    the suspension-free step that inserts the tombstone, so a racing
    writer that lands between the index lookup and the insert is still
    observed — the answer is exact at the delete's linearization point. *)
val remove_existed : t -> string -> bool

val get : t -> string -> bytes option

val scan : t -> from:string -> count:int -> (string * bytes) list

val quiesce : t -> unit

val compactions : t -> int
