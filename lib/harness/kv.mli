(** Uniform key-value store interface the experiment driver runs against,
    with adapters for Prism and every baseline.

    Every adapter carries a [stat_prefix]: the sanitized dotted-name
    prefix under which the backing store publishes its metrics in the
    engine registry (see {!Prism_sim.Stats}). Device counters are read
    back as ["<prefix>.device.ssd.bytes_written"] and
    ["<prefix>.device.nvm.bytes_written"]; {!Prism_sim.Stats.get_int}
    returns 0 for stores that never touch one of the two media. *)

type t = {
  name : string;
  stat_prefix : string;
      (** registry prefix, [Prism_sim.Stats.sanitize name] *)
  put : tid:int -> string -> bytes -> unit;
  get : tid:int -> string -> bytes option;
      (** the bytes may be shared with the store (its cache, memtable or
          table): they are read-only, for every adapter *)
  delete : tid:int -> string -> bool;
      (** returns whether the key existed immediately before the delete's
          linearization point — every adapter reports it exactly (the LSM
          and SLM-DB stores decide existence atomically with their
          tombstone insert; see [Lsm_tree.remove_existed]). *)
  scan : tid:int -> string -> int -> (string * bytes) list;
      (** the values are read-only, as [get]'s are *)
  quiesce : unit -> unit;
  recover : (unit -> unit) option;
      (** charge a full restart-recovery, when the system supports the
          §7.6 recovery experiment *)
}

(** The adapter is named ["Prism"]; its [stat_prefix] is ["prism"],
    where the store registers its telemetry. *)
val of_prism : Prism_core.Store.t -> t

val of_lsm : Prism_baselines.Lsm_tree.t -> t

val of_slmdb : Prism_baselines.Slmdb.t -> t

val of_kvell : Prism_baselines.Kvell.t -> t

(** [instrument engine kv] wraps every operation of [kv] with telemetry:
    per-op-kind virtual-time latency histograms
    (["kv.<prefix>.put.latency"], [".get.latency"], [".delete.latency"],
    [".scan.latency"]), a ["kv.<prefix>.put.bytes"] counter, and — when
    span collection is enabled on the engine — a span per operation.
    Purely observational: it only reads {!Prism_sim.Engine.now} and never
    schedules events, so instrumented runs are virtual-time identical to
    bare ones.

    Per-op latency is split across two histogram families so overload
    analysis can attribute tail growth: [".latency"] is {e service time}
    (the store call itself, measured here), while [".wait"] is {e queue
    wait} — time spent in a front-end request queue before dispatch,
    recorded by whoever owns the queue (see {!wait_histogram} and
    [Prism_frontend]). Closed-loop drivers never record waits, so the
    [".wait"] histograms instrument registers stay at count 0 there. *)
val instrument : Prism_sim.Engine.t -> t -> t

(** Operation kinds, for keying per-op metrics. *)
type op_kind = Put | Get | Delete | Scan

(** The kind of store call a trace operation dispatches to (updates and
    inserts are both puts). *)
val kind_of_op : Prism_workload.Trace.op -> op_kind

(** [apply kv ~tid op] runs one trace operation against [kv], building
    update/insert payloads with {!Prism_workload.Ycsb.value_for}; the
    store's answer is discarded. *)
val apply : t -> tid:int -> Prism_workload.Trace.op -> unit

(** [wait_histogram engine kv kind] get-or-creates the
    ["kv.<prefix>.<op>.wait"] histogram in [engine]'s registry — the
    queue-wait side of the wait/service split. Front-ends record each
    dispatched request's queue delay (in nanoseconds of virtual time)
    here. *)
val wait_histogram :
  Prism_sim.Engine.t -> t -> op_kind -> Prism_sim.Hist.t
