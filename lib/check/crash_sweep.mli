(** Crash-point sweep: run a seeded workload, cut power at every k-th
    durability boundary, recover, and check the recovery for durable
    linearizability (Izraelevitz, Mendes and Scott, DISC 2016) with
    {!Linearize}, the oracle the schedule explorer uses too.

    The workload runs through a {!History}. At the power cut,
    {!History.cut} closes every op still in flight as pending: it may or
    may not have taken effect. After recovery one scan reads every key of
    the workload, and the whole history, pending ops and that scan
    included, must linearize. So every acknowledged write must be
    present or superseded, no deleted key may come back, no value may
    come from the future, and a pending write batch must be all or
    nothing. Each workload thread owns a disjoint key range.

    Every store enters the sweep as one small record: its client handle,
    its durability boundaries as named hook setters (each calls its hook
    with the boundary's ordinal, e.g. the NVM persist and SSD write hooks
    of {!Prism_media}), power-cut and recovery functions, and, for the
    cluster only, a write-batch submitter. One run function drives every
    store: it arms the hooks, runs the workload, and when the chosen
    hook raises inside the simulation (unwinding
    {!Prism_sim.Engine.run}) it clears pending events, crashes the store,
    cuts the history, recovers, and checks. A store with no hooks (KVell,
    whose page writes carry no content image) is cut on an even
    virtual-time grid sized to one crash per [crash_every] executed
    events. *)

type config = {
  store : [ `Prism | `Kvell | `Lsm | `Cluster ];
  placement : [ `Static | `Hotness ];
      (** [`Prism] only: [`Hotness] adds a checker-sized NVM value tier,
          so nvm-persist crash points also land inside promote copies
          (tier write vs. HSIT coupling update) and ssd-write points
          inside demotion write-backs *)
  threads : int;
  keys_per_thread : int;  (** disjoint per-thread key ranges *)
  ops_per_thread : int;
  value_size : int;
  crash_every : int;  (** inject at every k-th boundary *)
  fault : Explore.fault;
      (** deliberate bug to inject: [Skip_hsit_flush] breaks the §5.4
          persist protocol ([`Prism] and [`Cluster]); [Skip_2pc_log_flush]
          makes commit records skip their persist, so the client ack races
          durability ([`Cluster] only). Either way the sweep must then
          report lost acknowledged writes. *)
  lsm_wal : bool;
      (** [`Lsm] only: disable to model WAL-less RocksDB — the publish
          sweep must then report lost acknowledged writes *)
  shards : int;  (** [`Cluster] only: Prism shards behind the 2PC front *)
  txn_every : int;
      (** [`Cluster] only: every N-th op per thread is a multi-key 2PC
          write batch over the thread's range (0 = singles only) *)
  seed : int64;
}

val default : config

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

(** [check_fault cfg] raises [Invalid_argument] if the store's sweep
    cannot inject [cfg.fault]: any SVC or scan fault, [Skip_hsit_flush] on
    [`Kvell] or [`Lsm], or [Skip_2pc_log_flush] anywhere but [`Cluster].
    Every run calls it first. *)
val check_fault : config -> unit

(** [run cfg] performs the full sweep: one clean run to count boundaries,
    then one crash-and-recover run per injection point. [progress] fires
    after each injected crash (in ascending target order, whatever
    [jobs] is). [jobs > 1] farms the crash runs out to that many fleet
    lanes — every target is an independent simulation — and merges the
    results in target order, replaying the serial driver's early-stop
    behaviour, so the report is byte-identical to [jobs = 1].

    @raise Invalid_argument as {!check_fault} does. *)
val run :
  ?progress:(boundary:string -> crash_point:int -> unit) ->
  ?jobs:int ->
  config ->
  report

(** [prism_crash_once cfg ~boundary ~target] is one Prism
    crash-at-boundary-[target] run (clean when [target = 0]), under an
    explorer-controlled tie-break — the building block for composing
    {!Dpor} with crash recovery. [`Completed] carries the clean run's
    (nvm-persist, ssd-write) boundary counts; [`Crashed_before_store]
    means [target] fell inside store creation. Only tests call it:
    [test_check] "hsit fault within budget" and "svc fault within budget". *)
val prism_crash_once :
  ?tie:Prism_sim.Engine.tie_break ->
  config ->
  boundary:[ `Nvm_persist | `Ssd_write ] ->
  target:int ->
  [ `Completed of int * int
  | `Crashed of violation list
  | `Crashed_before_store ]
