(** Hash-partitioned Prism cluster with 2PC cross-shard transactions.

    N independent Prism shards live inside one engine, each its own
    {!Prism_core.Store.t} (own NVM, SSDs, background processes). A
    client-side coordinator routes single-key operations to the owning
    shard over a simulated {!Net} medium and makes multi-key write
    batches atomic with two-phase commit:

    - {b Prepare}: each participant shard acquires per-key locks
      (no-wait: a conflict votes NO, which also makes deadlock
      impossible), appends a durable prepare record carrying the txn's
      writes to its NVM prepare log ([write_persist]), and votes.
    - {b Commit}: on unanimous YES the coordinator appends a commit
      record to its own NVM log via [write_persist] — the transaction's
      durability point; the client is acknowledged immediately after —
      then tells participants to apply. A participant applies through
      the normal [Store.put] path, appends a durable applied marker,
      and only then releases its locks.
    - {b Presumed abort}: any NO vote or a vote-collection timeout
      aborts with {e no} durable record. Recovery resolves an in-doubt
      prepare by consulting the coordinator log: commit record present
      means re-apply (idempotent: locks were still held, so no later
      write can be clobbered), absent means abort.

    Strict serializability comes from strict two-phase locking:
    single-key reads and writes wait on prepared locks, so no operation
    observes a transaction's partial writes. Telemetry registers under
    ["prism.cluster.*"] and ["net.*"]. *)

type t

type config = {
  shards : int;
  txn_timeout : float;
      (** seconds of virtual time the coordinator waits for votes *)
  link : Net.link_cfg;  (** every directed link of the mesh *)
  log_size : int;  (** coordinator-log NVM bytes *)
  plog_size : int;  (** per-shard prepare-log NVM bytes *)
  fault_skip_log_flush : bool;
      (** inject: commit records are written {e without} persist, so the
          ack races durability — a crash sweep must catch the acked
          committed transaction that recovery presumes aborted *)
  vote_no_shard : int option;
      (** test: this shard votes NO on every prepare (taking no locks) *)
  mute_shard : int option;
      (** test: this shard ignores PREPARE messages, forcing the
          coordinator down the vote-timeout abort path *)
  seed : int64;
}

val default : config

(** [of_scenario ?tweak engine cfg s] builds [cfg.shards] Prism shards
    via {!Prism_harness.Setup.prism} — records split evenly, one extra
    PWB thread reserved for applies — plus the cluster and a
    {!Prism_harness.Kv.t} front end named ["Prism-cluster"]. *)
val of_scenario :
  ?tweak:(Prism_core.Config.t -> Prism_core.Config.t) ->
  Prism_sim.Engine.t ->
  config ->
  Prism_harness.Setup.scenario ->
  t * Prism_harness.Kv.t

val shards : t -> int

(** Which shard owns [key] (FNV-1a of the key mod shard count). Only tests
    call it: [test_cluster] picks keys on a chosen shard with it. *)
val shard_of_key : t -> string -> int

val store : t -> int -> Prism_core.Store.t

(** The coordinator's NVM commit log — install a persist hook here to
    sweep crash points over commit-record boundaries. *)
val coordinator_log : t -> Prism_media.Nvm.t

(** Shard [i]'s NVM prepare log (prepare records + applied markers). *)
val prepare_log : t -> int -> Prism_media.Nvm.t

(** {2 Client operations} — must run inside a simulation process. *)

val put : t -> tid:int -> string -> bytes -> unit

val get : t -> tid:int -> string -> bytes option

val delete : t -> tid:int -> string -> bool

(** Scatter-gather over all shards, merged in key order. Not covered by
    the strict-serializability proof (the checker's cluster workloads
    exercise scans only on single-shard clusters). *)
val scan : t -> tid:int -> string -> int -> (string * bytes) list

type outcome = Committed | Aborted

(** [batch t ~tid writes] applies all [writes] atomically across their
    shards via 2PC. Within the batch, a later write to the same key
    wins. [Committed] is acknowledged only after the commit record is
    durable (unless [fault_skip_log_flush]); [Aborted] means no write is
    — or ever will be — visible. *)
val batch : t -> tid:int -> (string * bytes) list -> outcome

(** [with_batches t kv ~every ~records ~seed] is [kv] with every
    [every]-th put upgraded to a 3-key {!batch}: the put's own write plus
    two keys drawn uniformly from [records] (RNG seeded [seed + 0x7c]).
    The outcome is dropped, so a measured workload commits cross-shard
    transactions at a fixed rate. [every <= 0] returns [kv]. *)
val with_batches :
  t -> Prism_harness.Kv.t -> every:int -> records:int -> seed:int64 ->
  Prism_harness.Kv.t

(** {2 Crash and recovery} *)

(** Power-fail the whole cluster: every shard store, both log kinds, all
    lock tables and in-flight 2PC state. The caller must
    [Engine.clear_pending] first, exactly as with [Store.crash]. *)
val crash : t -> unit

(** One in-doubt transaction's fate, as decided during {!recover}. *)
type resolution = {
  res_txn : int;
  res_outcome : outcome;
      (** committed iff the coordinator log holds its commit record *)
  res_shards : int list;  (** shards where it was in doubt *)
}

(** [recover t] recovers every shard store, then resolves in-doubt
    prepares against the durable coordinator log: committed transactions
    are re-applied (then marked applied), unrecorded ones are presumed
    aborted. Returns the resolutions sorted by transaction id. Must run
    inside a simulation process. *)
val recover : t -> resolution list

(** Transactions committed / aborted / prepare records written so far
    (live counters, also registered in the engine's metric registry). *)
val txn_stats : t -> int * int * int
