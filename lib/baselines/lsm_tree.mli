(** Leveled LSM-tree engine, built from scratch as the substrate for the
    paper's three LSM competitors (§7.1):

    - {b RocksDB-NVM}: WAL, L0 and all levels on NVM, classic leveled
      compaction with L0 slowdown/stall backpressure;
    - {b MatrixKV}: WAL and L0 on NVM, with L0 organized as a matrix
      container (a sorted NVM buffer) compacted to SSD in fine-grained
      key-range columns, higher levels on flash RAID;
    - (plain RocksDB-on-SSD is also expressible, though the paper only
      evaluates the NVM variant.)

    The engine runs a background flush process (memtable → L0) and a
    background compaction process (L0 → L1, Ln → Ln+1); foreground writes
    experience RocksDB-style slowdown and stall backpressure when L0 (or
    the matrix container) fills — the effect at the heart of Figure 7's
    write-path comparison. *)

type l0_mode =
  | Tables  (** classic: each flush is one overlapping L0 SSTable *)
  | Container of { capacity : int; column : int }
      (** MatrixKV matrix container: flushes merge into a sorted NVM
          buffer of [capacity] bytes; compaction drains [column]-byte
          key-range columns *)

type config = {
  name : string;
  memtable_bytes : int;
  l0_mode : l0_mode;
  l0_compaction_trigger : int;
  l0_slowdown : int;
  l0_stall : int;
  level_base_bytes : int;  (** L1 size target; Ln = base * mult^(n-1) *)
  level_multiplier : int;
  table_target_bytes : int;  (** output SSTable size *)
  block_cache_bytes : int;
  wal_enabled : bool;
}

type t

val create :
  Prism_sim.Engine.t ->
  config ->
  cost:Prism_device.Cost.t ->
  rng:Prism_sim.Rng.t ->
  wal:Target.t ->
  l0:Target.t ->
  levels:Target.t ->
  t

val name : t -> string

(** [put t key v] (insert or update). *)
val put : t -> string -> bytes -> unit

(** [remove t key] writes a tombstone. *)
val remove : t -> string -> unit

(** [remove_existed t key] writes a tombstone and reports whether the key
    held a live value immediately before it. The durable levels are
    probed before the write-group lock is taken, so writers never queue
    behind the probe's IO; the answer is then decided inside the critical
    section that inserts the tombstone, so it is exact at the delete's
    linearization point: the memtables are checked again there, and the
    probe is repeated if a flush or compaction published while it ran.
    Costs a read of the key's resident location on top of {!remove}. *)
val remove_existed : t -> string -> bool

val get : t -> string -> bytes option

(** [scan t ~from ~count] merged ascending range read across all levels. *)
val scan : t -> from:string -> count:int -> (string * bytes) list

(** Block until the memtable fits and no compaction debt remains (phase
    boundary in benchmarks). *)
val quiesce : t -> unit

val compactions : t -> int

(** Bytes written to the SSD level target (WAF numerator). *)
val level_bytes_written : t -> int

(** {2 Crash and recovery}

    The durability boundaries a crash sweep targets: every WAL append
    (record durable, memtable insert may still be lost) and every SSTable
    publish (flush or compaction output installed). Hooks receive the
    running count and may raise to cut the simulation at that boundary. *)

val set_wal_hook : t -> (int -> unit) option -> unit

val set_publish_hook : t -> (int -> unit) option -> unit

(** [crash t] models power failure: both memtables, the block cache and
    all waiters vanish; WAL content, L0/container and levels survive.
    Background loops are respawned. The caller must
    [Engine.clear_pending] first (see {!Kvell.crash}). *)
val crash : t -> unit

(** [recover t] replays the durable WAL (oldest first) into the fresh
    memtable, charging the log read. A no-op when the WAL is disabled —
    which is exactly the data loss a sweep with [wal_enabled = false]
    must detect. *)
val recover : t -> unit
