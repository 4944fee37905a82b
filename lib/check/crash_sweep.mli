(** Crash-point sweep: run a seeded workload, cut power at every k-th
    durability boundary, recover, and check the recovery for durable
    linearizability (Izraelevitz, Mendes and Scott, DISC 2016) with
    {!Linearize}, the oracle the schedule explorer uses too.

    Every run is one {!Explore.run_once} with a cut: at the power cut,
    {!History.cut} closes every op still in flight as pending (it may or
    may not have taken effect); after recovery one scan reads every key
    of the workload, and the whole history, pending ops and that scan
    included, must linearize. So every acknowledged write must be present
    or superseded, no deleted key may come back, no value may come from
    the future, and a pending write batch must be all or nothing. Each
    workload thread owns a disjoint key range.

    One clean run counts each boundary kind the store's hooks expose
    ({!Explore.instance}); the sweep then crashes at every
    [crash_every]-th one. A store with no hooks (KVell, whose page writes
    carry no content image) is cut on an even virtual-time grid sized to
    one crash per [crash_every] executed events. *)

(** The sweep's preset: {!Explore.default} with 60 ops per thread over
    [keys_per_thread = 24] keys each, values of 128 B, and a 2-shard
    cluster batching every 4th op when [store = `Cluster]. [fault] may
    be [Skip_hsit_flush], which breaks the §5.4 persist protocol
    ([`Prism] and [`Cluster]), [Skip_2pc_log_flush], which makes commit
    records skip their persist so the client ack races durability
    ([`Cluster] only), or [No_lsm_wal] ([`Lsm] only). Each way the sweep
    must then report lost acknowledged writes. *)
val default : Explore.config

(** [workload cfg] is the sweep's workload: each thread writes and
    deletes in its own range of [cfg.keys_per_thread] keys (on
    [`Cluster], every [cfg.txn_every]-th op is a write batch over that
    range), with no preload. {!run} uses it; [test_check] "hsit fault
    within budget" crashes it under a DPOR walk through
    {!Explore.run_once}. *)
val workload : Explore.config -> Explore.workload

(** A recovery that does not linearize; each crash point reports at most
    one. *)
type violation = {
  crash_point : int;  (** boundary ordinal (or grid index) injected at *)
  boundary : string;
      (** ["nvm-persist"], ["ssd-write"], ["wal-append"],
          ["sstable-publish"], ["virtual-time"], ["coord-log-persist"],
          ["prepare-log-persist"] *)
  key : string;  (** the key {!Linearize} blames ([""] if none) *)
  detail : string;
      (** {!Linearize.pp_violation}: the virtual-time window, the reason,
          and the ops involved, values named by version stamp ([v37]) *)
}

type report = {
  crash_points : int;  (** crashes actually injected *)
  boundaries : (string * int) list;  (** clean-run boundary counts *)
  violations : violation list;
}

(** [check_fault cfg] raises [Invalid_argument] if the sweep cannot
    inject [cfg.fault]: whatever {!Explore.check_fault} refuses, and any
    fault a crash cannot show (the SVC and scan faults). {!run} calls it
    first. *)
val check_fault : Explore.config -> unit

(** [run cfg] performs the full sweep: one clean run to count boundaries,
    then one crash-and-recover run per injection point, each over an
    8 KiB PWB. [progress] fires after each injected crash (in ascending
    target order, whatever [jobs] is). [jobs > 1] farms the crash runs
    of every boundary kind, in one farm, to that many fleet worker
    processes forked after the clean run — every target is an
    independent simulation — and merges the results in target order,
    stopping a kind at its first uncut run, so the report is
    byte-identical to [jobs = 1].

    @raise Invalid_argument as {!check_fault} does. *)
val run :
  ?progress:(boundary:string -> crash_point:int -> unit) ->
  ?jobs:int ->
  Explore.config ->
  report
