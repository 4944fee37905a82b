(** Concurrent-history recording over a {!Prism_harness.Kv.t}.

    Each KV operation is logged as an invocation/response interval. The
    simulator is cooperative and single-threaded under the hood, so a
    global logical stamp — incremented at every invocation and response —
    totally orders all interval endpoints. Operation A precedes operation
    B ([A <_H B] in Herlihy–Wing terms) exactly when [A.resp < B.inv];
    intervals that overlap in stamps were genuinely concurrent in the
    simulation, because a stamp gap means the engine interleaved other
    steps between them.

    Endpoints are also stamped with virtual time, so a violation report
    can say {e when} the offending window opened and closed — which is
    what makes failing schedules minimizable.

    Recording additionally labels the simulation engine's pending events
    with the operation that owns them (see {!Prism_sim.Engine.annotate}),
    so a schedule explorer can tell which operations a tie-break decision
    actually orders and prune Mazurkiewicz-equivalent interleavings. *)

type call =
  | Put of string * bytes
  | Get of string
  | Delete of string
  | Scan of string * int
  | Batch of (string * bytes) list
      (** multi-key atomic write batch (2PC transaction) *)

type outcome =
  | Ok_unit
  | Got of bytes option
  | Existed of bool
  | Items of (string * bytes) list
  | Committed of bool  (** a batch's fate: committed or aborted *)
  | Pending
      (** cut off by a crash ({!cut}): the op may or may not have taken
          effect, and any read it made is lost *)

type event = {
  op : int;  (** dense index in invocation order *)
  tid : int;
  call : call;
  outcome : outcome;
  inv : int;  (** logical stamp at invocation *)
  resp : int;  (** logical stamp at response *)
  inv_time : float;  (** virtual time at invocation *)
  resp_time : float;  (** virtual time at response *)
}

type t

val create : unit -> t

(** [set_enabled t false] makes {!wrap}ped stores pass operations through
    unrecorded — used to keep the preload phase out of the history. *)
val set_enabled : t -> bool -> unit

(** [wrap t kv] is [kv] with every put/get/delete/scan logged into [t].
    [quiesce]/recovery passthroughs are unchanged. *)
val wrap : t -> Prism_harness.Kv.t -> Prism_harness.Kv.t

(** [record_batch t ~tid writes run] logs a multi-key write batch around
    [run] (which performs the transaction and returns whether it
    committed). [Kv.t] has no batch operation, so cluster workloads call
    this directly next to a {!wrap}ped store. *)
val record_batch :
  t -> tid:int -> (string * bytes) list -> (unit -> bool) -> bool

(** [cut t] records a power cut: every operation still open responds at
    one new stamp, at the current virtual time, with outcome [Pending].
    Operations recorded afterwards (reads made after recovery) follow
    every pending one in real time. Call it inside a simulation process.
    A run that never crashes never calls it. *)
val cut : t -> unit

(** Responded events sorted by invocation stamp: every completed op,
    and every op {!cut} closed as pending. Operations still open (no
    response and no cut yet) are absent. *)
val events : t -> event array

(** [op_label ~tid call] packs (key id, tid, kind) into a nonzero
    scheduling label for {!Prism_sim.Engine.annotate}. Key identity is an
    interned index assigned on first sight and stable for the rest of the
    process, so labels are exact (no hash collisions) and consistent
    across the many runs of one exploration; scan labels carry the
    interned start key so {!conflicting} can compare it against write
    keys. Raises [Invalid_argument] when [tid] exceeds {!max_tid} — tids
    must never alias silently into a shared conflict class. Only tests call
    it: [test_check] "tid widening kills aliasing", "scan/write range
    conflicts" and "record is exception-safe". *)
val op_label : tid:int -> call -> int

(** Largest thread id representable in a scheduling label. Only tests read it:
    [test_check] "tid widening kills aliasing". *)
val max_tid : int

(** [conflicting a b] is the dependency relation over scheduling labels:
    true when reordering two events with these labels could change the
    outcome — same-key with at least one writer, a write at or above a
    scan's start key, either label unlabelled ([0], assumed to touch
    anything), or either label a batch (a batch's label cannot name its
    full key set, so it conservatively conflicts with everything). Two
    reads, two scans, writes strictly below a scan's start key, or
    operations on different keys commute. *)
val conflicting : int -> int -> bool

(** Values print as their {!Prism_workload.Ycsb.version_of} stamp
    ([put k v37], [-> Some v0]), or as their size ([(64 B)]) when they
    carry none. Only tests call it: [test_check] "reports name values by
    version". *)
val pp_call : Format.formatter -> call -> unit

val pp_event : Format.formatter -> event -> unit
