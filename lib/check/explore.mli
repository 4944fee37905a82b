(** Seeded schedule exploration with linearizability checking, and the
    harness it shares with the crash sweep ({!Crash_sweep}): one
    configuration, one store builder and one run function.

    One run = one tie-break seed handed to {!Prism_sim.Engine.set_tie_break}:
    the engine resolves every same-instant event tie with a SplitMix64
    stream, so each seed names exactly one interleaving of the same
    per-thread operation lists. A failing schedule is reported with its
    tie seed; {!replay} (or the CLI's [--replay]) re-runs that one
    interleaving deterministically. *)

type fault =
  | No_fault
  | Skip_svc_invalidate
      (** puts/deletes skip the SVC invalidation — stale reads; the
          linearizability check must flag it *)
  | Skip_hsit_flush
      (** HSIT skips pointer persists — harmless live, fatal across a
          crash; see {!Crash_sweep} *)
  | Scan_stale_snapshot
      (** repeat scans from one start key are served from the previous
          result — stale snapshots the weak scan check cannot see; a
          wrapper on the store's scan ({!instance}), so any store *)
  | Scan_skip_pwb
      (** scans ignore values whose freshest version lives in a PWB —
          recently-written in-range keys silently vanish from results *)
  | Scan_drop_key
      (** scans drop their second item when returning three or more — a
          provably present in-range key goes missing; a wrapper on the
          store's scan, like [Scan_stale_snapshot] *)
  | Skip_2pc_log_flush
      (** the cluster coordinator acks commits without persisting the
          commit record — harmless live, loses acknowledged transactions
          across a crash; see {!Crash_sweep} *)
  | No_lsm_wal
      (** [`Lsm] runs without its write-ahead log (WAL-less RocksDB) —
          the publish sweep must then report lost acknowledged writes *)

(** One configuration serves both checkers: schedule exploration (this
    module) and the crash sweep ({!Crash_sweep}). Each reads the fields it
    needs; {!default} and {!Crash_sweep.default} are the two presets. *)
type config = {
  store : [ `Prism | `Kvell | `Lsm | `Cluster ];
      (** [`Cluster] is a hash-partitioned {!Prism_cluster.Cluster} of
          [shards] Prism stores behind the 2PC front, the only store that
          takes write batches; [`Lsm] has a crash sweep but no
          exploration *)
  threads : int;
  records : int;
      (** exploration: preloaded keys (small, to force contention) *)
  keys_per_thread : int;  (** sweep: disjoint per-thread key ranges *)
  value_size : int;
  ops_per_thread : int;
  theta : float;  (** exploration: Zipfian skew of the YCSB-A slice *)
  delete_every : int;
      (** exploration: 1-in-N updates become deletes (default 8; lower =
          more) *)
  scan_every : int;
      (** exploration: 1-in-N reads become short scans (default 16; lower
          = more) *)
  fault : fault;
  shards : int;
      (** [`Cluster] only: Prism shards behind the 2PC front. Explored
          scans are traded for reads above one shard, since
          scatter-gather scans sit outside the cluster's
          strict-serializability argument *)
  txn_every : int;
      (** [`Cluster] only: 1-in-N updates (exploration) or every N-th op
          per thread (sweep) become multi-key 2PC write batches (0 =
          never); committed batches enter the check as atomic anchors, so
          a torn or non-atomic transaction is a reported violation *)
  crash_every : int;  (** sweep: inject at every k-th boundary *)
  seed : int64;  (** master seed: workload + all per-schedule tie seeds *)
}

(** Exploration's preset: 4 threads x 48 ops over 128 preloaded keys of
    64 B; as [`Cluster], 2 shards batching every 4th update. *)
val default : config

(** [topology ?shards ?txn_every cfg] settles the store a command line's
    [--store], [--shards] and [--txn-every] ask for, once for every mode.
    An omitted count (or a shard count below 1, a negative [txn_every])
    is {!default}'s on [`Cluster] and on [`Prism] with more than one
    shard, and one shard without batches elsewhere. [`Prism] with more
    than one shard or with batches is the [`Cluster]. *)
val topology : ?shards:int -> ?txn_every:int -> config -> config

(** [check_fault cfg] raises [Invalid_argument] if [cfg.store] cannot
    inject [cfg.fault]: the SVC, HSIT and [Scan_skip_pwb] faults need a
    Prism store ([`Prism] or [`Cluster]), [Skip_2pc_log_flush] the
    [`Cluster], [No_lsm_wal] the [`Lsm]; the two scan faults that rewrite
    a result fit every store. {!run}, {!run_dpor}, {!replay}, {!run_tie},
    {!replay_choices}, {!shrink} and {!Crash_sweep.run} call it before
    their first run. *)
val check_fault : config -> unit

(** {2 The store under test and one run}

    Both checkers drive the store through {!run_once}: build it with
    {!instance}, run a {!workload} on it through a {!History}, and check
    the history with {!Linearize}. A run with a {!cut} can lose power;
    one without is an exploration run and arms no hooks. *)

(** [txn_every cfg] is the write-batch rate the workloads use:
    [cfg.txn_every] on [`Cluster], 0 on every other store. *)
val txn_every : config -> int

type op =
  | Put of string * bytes
  | Get of string
  | Delete of string
  | Scan of string * int
  | Batch of (string * bytes) list  (** a 2PC write batch ([`Cluster]) *)

(** Everything a run reads that is fixed for a whole walk. A run
    allocates only its own store, history and check. *)
type workload = {
  keys : int;
      (** keys [0, keys) of {!Prism_workload.Ycsb.key_of}: the store is
          sized for them, and the audit scan after a crash reads them *)
  preload : string list;
      (** keys [0, n) of {!Prism_workload.Ycsb.key_of}, in the order a
          run writes them before recording starts *)
  initial : (string, bytes) Hashtbl.t;
      (** each [preload] key's version-0 payload
          ({!Prism_workload.Ycsb.value_for}): the value a run writes and
          the history's initial state; a key not in it starts absent *)
  ops : op array array;  (** per-thread op lists *)
}

(** [workload cfg] is the checker's YCSB-A slice for [cfg]: per-thread
    op lists drawn from [cfg.seed], where about one update in
    [delete_every] is a [Delete], one read in [scan_every] a [Scan] and,
    on the cluster, one update in [txn_every] a 2PC [Batch], over a
    preload of keys [0, records). {!run}, {!run_dpor} and {!shrink}
    build it once per walk, preload included, and share it across every
    run, forked workers included: a run reads its keys and values and
    never writes them. *)
val workload : config -> workload

(** One store under test: its client handle, its durability boundaries
    as named hook setters (e.g. the NVM persist and SSD write hooks of
    {!Prism_media}), power-cut and recovery functions, and, for the
    cluster only, a write-batch submitter. *)
type instance

(** [instance cfg engine ~pwb_size ~keys] builds [cfg.store] sized for
    [keys] keys, with [pwb_size]-byte Prism write buffers. KVell sits
    behind a synchronous put (it returns only once durable), unlike
    {!Prism_harness.Kv.of_kvell}'s injector-style pipelined puts: a
    checker must not treat an unacknowledged write's return as its
    response endpoint. Under [Scan_drop_key] or [Scan_stale_snapshot]
    the client's scan is wrapped to rewrite its result; any other fault
    is set in the store's own configuration. *)
val instance :
  config -> Prism_sim.Engine.t -> pwb_size:int -> keys:int -> instance

(** Where a run cuts power: nowhere (but with every hook armed and
    counting), at the n-th boundary of a named kind, or (stores without
    hooks) at a virtual time, reported as its grid index. *)
type cut = Clean | Boundary of string * int | Grid of float * int

type run = {
  crashed : (string * int) option;
      (** the boundary kind and ordinal power was cut at (["virtual-time"]
          and the grid index for a [Grid] cut); [None] if the workload
          completed *)
  counts : (string * int) list;
      (** boundaries each armed kind saw (none without a cut) *)
  clock : float;  (** final virtual time *)
  executed : int;  (** engine events executed *)
  recorded : int;  (** history events *)
  decisions : int;  (** tie-break decisions taken *)
  fingerprint : int;
      (** {!fingerprint} of the decisions, folded in place: a run copies
          them only with [keep_choices] *)
  choices : int array;
      (** the decisions, with [keep_choices]; empty otherwise *)
  violation : Linearize.violation option;
}

(** [run_once ?tie ?cut ?keep_choices ~pwb_size cfg w] runs [w] on a fresh
    [instance cfg _ ~pwb_size ~keys:w.keys] under [tie] (default FIFO),
    after writing its preload outside the history, and checks the
    history. With a [cut] every hook of the store is armed; when the
    cut's boundary (or grid time) comes, the run drops pending events,
    cuts power, recovers, and scans every workload key. The history with
    its pending ops and that scan must then linearize (durable
    linearizability, Izraelevitz, Mendes and Scott, DISC 2016). *)
val run_once :
  ?tie:Prism_sim.Engine.tie_break ->
  ?cut:cut ->
  ?keep_choices:bool ->
  pwb_size:int ->
  config ->
  workload ->
  run

(** {2 Seeded exploration} *)

type schedule_stats = {
  index : int;
  tie_seed : int64;
  events : int;  (** completed history events *)
  clock : float;  (** final virtual time *)
  choices : int;  (** tie-break decisions taken *)
  fingerprint : int;  (** {!fingerprint} of the run *)
}

(** [fingerprint ~events ~clock choices] identifies a schedule by its
    events executed, final clock and every tie-break decision: two
    equally long decision lists that differ anywhere get different
    fingerprints. {!run_once} folds the same steps over the engine's
    decisions in place; only tests call this array form: [test_check]
    "fingerprint sees every decision". *)
val fingerprint : events:int -> clock:float -> int array -> int

type failure = { stats : schedule_stats; violation : string }

type report = {
  schedules : schedule_stats list;
  distinct : int;  (** number of distinct schedule fingerprints *)
  failures : failure list;
}

(** [run ~schedules cfg] explores [schedules] seeded interleavings of the
    same workload and checks each history for linearizability (plus the
    scan sanity conditions). [progress] is called after each schedule,
    in schedule order. With [jobs > 1] the schedules are farmed to that
    many {!Prism_fleet.Fleet} worker processes; the report (and the
    [progress] sequence) is byte-identical to the serial run for any job
    count. *)
val run :
  ?progress:(schedule_stats -> unit) ->
  ?jobs:int ->
  schedules:int ->
  config ->
  report

(** [replay cfg ~tie_seed] re-runs a single schedule and returns the
    violation text, if any — for reproducing a reported failure. *)
val replay : config -> tie_seed:int64 -> string option

(** {2 DPOR exploration}

    Instead of sampling seeds, {!run_dpor} walks the tie-break decision
    tree systematically via {!Dpor}, pruned with sleep sets and
    persistent sets over {!History.conflicting} so that every completed
    run is a distinct Mazurkiewicz class of the workload. *)

type dpor_failure = {
  class_index : int;  (** which equivalence class failed *)
  found_at_run : int;  (** simulations executed when it was found *)
  choices : int array;
      (** replayable decision list — [--replay-choices] / {!replay_choices} *)
  violation : string;
}

type dpor_report = {
  classes : int;  (** distinct equivalence classes completed *)
  runs : int;  (** total simulations, including pruned ones *)
  pruned : int;  (** runs abandoned as sleep-set redundant *)
  complete : bool;  (** decision tree exhausted within budget *)
  dpor_failures : dpor_failure list;
}

(** [run_dpor ~max_classes cfg] explores up to [max_classes] distinct
    interleaving classes of the workload. With [jobs > 1] each batch of
    same-depth frontier targets runs on worker processes (see
    {!Dpor.explore}); the report and [progress] sequence are
    byte-identical to the serial walk. *)
val run_dpor :
  ?progress:(schedule_stats -> unit) ->
  ?jobs:int ->
  max_classes:int ->
  config ->
  dpor_report

(** {2 Choice-list replay and shrinking} *)

(** [run_tie cfg ~tie] is one run of the workload under an arbitrary
    tie-break policy, returning the decisions it took (as
    {!Prism_sim.Engine.Replay} indices) and the violation, if any: under
    [Seeded], the raw material for {!shrink}; under [Guided], the store
    driven from a custom {!Dpor} exploration. *)
val run_tie :
  config -> tie:Prism_sim.Engine.tie_break -> int array * string option

(** [replay_choices cfg ~choices] re-runs the schedule named by an
    explicit decision list. Decisions beyond the list's end fall back to
    FIFO, so a {!shrink}-stripped list replays to the same schedule. *)
val replay_choices : config -> choices:int array -> string option

(** [strip_fifo_tail choices] drops the trailing FIFO (0) decisions,
    which {!replay_choices} reads past the end of a list anyway: the
    result replays to the same schedule. *)
val strip_fifo_tail : int array -> int array

type shrunk = {
  minimal : int array;  (** shortest reproducing decision list *)
  non_fifo : int;  (** decisions in [minimal] that depart from FIFO *)
  replays : int;  (** simulations spent shrinking *)
  shrunk_violation : string;  (** what [minimal] still violates *)
}

(** [shrink cfg ~choices] reverts tie decisions to FIFO (index 0) while
    the replay still reports a violation — ddmin-style over shrinking
    blocks, so [O(k log n)] replays when [k] of [n] decisions are
    load-bearing — then strips the trailing FIFO run. Each candidate is
    validated by a full replay, capped at [max_replays] simulations
    (minimal-so-far if the cap is hit). [None] if [choices] doesn't
    reproduce a violation in the first place. *)
val shrink : ?max_replays:int -> config -> choices:int array -> shrunk option
