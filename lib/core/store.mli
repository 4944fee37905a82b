(** Prism: the public key-value store API (§4).

    A [Store.t] wires the five components together: Persistent Key Index
    (B+-tree charged at NVM cost), HSIT, per-thread PWBs with background
    reclaimers, one Value Storage per simulated SSD with background GC,
    and the SVC with its background manager. Reads go through the
    configured read path (opportunistic thread combining by default).

    All operations must run inside a simulation process and carry the
    calling thread's id (which selects its PWB, epoch slot and scan
    buffers), one operation per thread id at a time.

    The bytes {!get} and {!scan} return are shared with the store (a hit
    returns the SVC's own bytes) and are read-only: the caller must not
    mutate them. *)

type t

(** Per-operation outcome statistics: an immutable snapshot taken by
    {!stats} at call time. The live counters are registered (by
    reference) in the engine's metric registry under ["prism.*"] — see
    [Prism_sim.Stats] — together with gauges for every subsystem (SVC,
    PWB, TCQ, Value-Storage GC, reclaimers, devices, WAF). *)
type stats = {
  puts : int;
  gets : int;
  deletes : int;
  scans : int;
  svc_hits : int;
  pwb_hits : int;
  vs_reads : int;
  misses : int;
}

(** [create engine config] builds a store and spawns its background
    processes. *)
val create : Prism_sim.Engine.t -> Config.t -> t

val config : t -> Config.t

val stats : t -> stats

(** [put t ~tid key value] inserts or updates. [value] must be non-empty
    and smaller than half a PWB. *)
val put : t -> tid:int -> string -> bytes -> unit

(** [get t ~tid key] returns the current value (read-only, see above). *)
val get : t -> tid:int -> string -> bytes option

(** [delete t ~tid key] removes the binding; returns whether it existed. *)
val delete : t -> tid:int -> string -> bool

(** [scan t ~tid key count] returns up to [count] key-value pairs with
    keys [>= key] in order (§4.4 links the fetched values into an SVC scan
    chain). Values are read-only, as {!get}'s are. The thread's scan
    buffers are reused by its next scan; the returned list shares none
    of them. *)
val scan : t -> tid:int -> string -> int -> (string * bytes) list

(** Number of live keys. *)
val length : t -> int

(** NVM bytes used by Key Index + HSIT (the §7.6 footprint metric). *)
val nvm_index_bytes : t -> int

(** Aggregate SSD bytes written across all Value Storages (WAF
    numerator). *)
val ssd_bytes_written : t -> int

(** Sum of GC passes across Value Storages. *)
val gc_runs : t -> int

(** [(migrated, superseded)] totals across all PWB reclaimers: values
    written to Value Storage vs. dead versions skipped without any SSD
    write (the §4.3 write-traffic saving). *)
val reclaim_stats : t -> int * int

(** True while any PWB reclaimer is inside a pass. {!quiesce} returns
    once every PWB is below its watermark, which may be mid-pass, while
    a migration holds a value in both its old and its new home; a check
    of the store at rest waits for this to turn false. *)
val reclaiming : t -> bool

(** The Scan-aware Value Cache, when enabled (cache-level statistics). *)
val svc : t -> Svc.t option

(** The Value Storages (tests and benches need device counters). *)
val value_storages : t -> Value_storage.t array

(** The NVM region (for endurance accounting). *)
val nvm : t -> Prism_media.Nvm.t

(** [crash t] simulates a power failure: pending simulation events are
    discarded by the caller (see {!Prism_sim.Engine.clear_pending});
    this call reverts NVM to its durable image and empties DRAM state
    (SVC). *)
val crash : t -> unit

(** [recover t] runs the §5.5 recovery procedure on the calling process:
    walks the (crash-consistent) Key Index, re-couples HSIT entries with
    PWB records and Value Storage slots, rebuilds validity bitmaps and the
    HSIT free list, and nullifies SVC pointers. Returns the number of
    recovered keys. *)
val recover : t -> int

(** Block until PWB reclamation has drained every buffer below the
    watermark (used between benchmark phases). *)
val quiesce : t -> unit
