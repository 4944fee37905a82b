(** Seeded schedule exploration with linearizability checking.

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
          result — stale snapshots the weak scan check cannot see *)
  | Scan_skip_pwb
      (** scans ignore values whose freshest version lives in a PWB —
          recently-written in-range keys silently vanish from results *)
  | Scan_drop_key
      (** scans drop their second item when returning three or more — a
          provably present in-range key goes missing *)
  | Skip_2pc_log_flush
      (** the cluster coordinator acks commits without persisting the
          commit record — harmless live, loses acknowledged transactions
          across a crash; see {!Crash_sweep} *)

type config = {
  store : [ `Prism | `Kvell ];
  placement : [ `Static | `Hotness ];
      (** Prism value-placement policy; [`Hotness] adds a checker-sized
          NVM value tier so schedules interleave promotions/demotions
          with client operations ([`Kvell] ignores it) *)
  threads : int;
  records : int;  (** preloaded keys (small, to force contention) *)
  value_size : int;
  ops_per_thread : int;
  theta : float;  (** Zipfian skew of the YCSB-A slice *)
  delete_every : int;
      (** 1-in-N updates become deletes (default 8; lower = more) *)
  scan_every : int;
      (** 1-in-N reads become short scans (default 16; lower = more) *)
  fault : fault;
  shards : int;
      (** > 1 runs a hash-partitioned {!Prism_cluster.Cluster} instead of
          one store (Prism only); scans are traded for reads, since
          scatter-gather scans sit outside the cluster's
          strict-serializability argument *)
  txn_every : int;
      (** 1-in-N updates become multi-key 2PC write batches (0 = never);
          committed batches enter the check as atomic anchors, so a torn
          or non-atomic transaction is a reported violation *)
  seed : int64;  (** master seed: workload + all per-schedule tie seeds *)
}

val default : config

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
    fingerprints. Only tests call it directly: [test_check] "fingerprint sees
    every decision". *)
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
    in schedule order. With [jobs > 1] the schedules execute on a
    {!Prism_fleet.Fleet} pool; the report (and the [progress] sequence)
    is byte-identical to the serial run for any job count. *)
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
    interleaving classes of the workload. With [stop_on_failure] the walk
    stops at the first linearizability violation. With [jobs > 1] the
    frontier is explored speculatively on worker domains (see
    {!Dpor.explore}); the report and [progress] sequence are
    byte-identical to the serial walk. *)
val run_dpor :
  ?progress:(schedule_stats -> unit) ->
  ?stop_on_failure:bool ->
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

(** [make_kv cfg engine] builds the store one run of [cfg] checks — a
    Prism store, a KVell instance or a cluster, sized by [cfg] — plus the
    cluster's transactional batch submitter when there is one. *)
val make_kv :
  config ->
  Prism_sim.Engine.t ->
  Prism_harness.Kv.t
  * (tid:int -> (string * bytes) list -> bool) option

(** [kvell_sync engine s] builds a KVell instance plus a {!Prism_harness.Kv.t}
    whose [put] is synchronous (returns only once durable), unlike
    {!Prism_harness.Kv.of_kvell}'s injector-style pipelined puts — a
    checker must not treat an unacknowledged write's return as its
    response endpoint. Shared with {!Crash_sweep}. *)
val kvell_sync :
  Prism_sim.Engine.t ->
  Prism_harness.Setup.scenario ->
  Prism_baselines.Kvell.t * Prism_harness.Kv.t
