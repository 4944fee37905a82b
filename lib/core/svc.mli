(** Scan-aware Value Cache (§4.4): DRAM cache of read-hot values.

    There is no separate cache index — HSIT's SVC pointer leads straight to
    the entry. Management (LRU bookkeeping, eviction) is done by a
    background manager process fed through a mailbox, keeping it off the
    critical path. Eviction uses a 2Q scheme: admission to the inactive
    list, promotion to the active list on second access, demotion from an
    over-long active list, eviction from the inactive tail.

    Values fetched by one scan are linked into a doubly-linked chain; when
    any chain member is evicted the whole chain is sorted by key and handed
    to the [reorganize] callback, which rewrites the values contiguously
    into Value Storage to restore spatial locality for future scans.

    Values are kept and served by reference: an entry holds the bytes it
    was admitted with, and a hit returns those same bytes. No code mutates
    a value once it has been put or read, so sharing them is safe; the
    DRAM copy a real cache makes is charged in virtual time only.

    Freed entries are reclaimed through epochs: a concurrent reader that
    resolved HSIT's SVC pointer just before eviction can still safely read
    the value. *)

type t

(** What the reorganize callback receives per chain member: the backward
    pointer, key, cached value (the bytes readers are served), and the
    clean HSIT word of the Value-Storage location the value was cached
    from (used as the CAS expectation when repointing). *)
type member = {
  hsit_id : int;
  key : string;
  value : bytes;
  cached_from : int;
}

val create :
  Prism_sim.Engine.t ->
  capacity:int ->
  cost:Prism_device.Cost.t ->
  epoch:Epoch.t ->
  hsit:Hsit.t ->
  t

(** [set_reorganize t f] installs the sort-on-evict write-back hook; when
    absent, chains are simply dissolved on eviction. [f] runs on the
    manager process and receives members sorted by key. *)
val set_reorganize : t -> (member array -> unit) -> unit

(** Spawn the background manager process. *)
val start_manager : t -> unit

(** [lookup t ~idx ~hsit_id] is the cached value if entry [idx] is still
    live and bound to [hsit_id] (the entry's own bytes, read-only); bumps
    its reference bit. Caller must hold an epoch pin. Charges the DRAM
    copy cost a real cache pays. *)
val lookup : t -> idx:int -> hsit_id:int -> bytes option

(** [lookup_value t ~idx ~hsit_id] is {!lookup} with a miss as the empty
    value (a cached value is never empty): the store's read path. *)
val lookup_value : t -> idx:int -> hsit_id:int -> bytes

(** [admit t ~hsit_id ~key ~value ~cached_from] inserts a value read from
    Value Storage, keeping [value] itself (the caller must not mutate it
    afterwards), and publishes it via HSIT's SVC pointer (lock-free;
    loses gracefully to a concurrent admit). Returns the entry index when
    published. *)
val admit :
  t ->
  hsit_id:int ->
  key:string ->
  value:bytes ->
  cached_from:Location.t ->
  int option

(** [admit_index t ~hsit_id ~key ~value ~from_] is {!admit} with the
    location as its clean HSIT word and a refusal as -1: the store's read
    path. *)
val admit_index :
  t -> hsit_id:int -> key:string -> value:bytes -> from_:int -> int

(** [invalidate t ~hsit_id] unpublishes and retires the entry bound to
    [hsit_id], if any — used by writers before overwriting or deleting a
    key. *)
val invalidate : t -> hsit_id:int -> unit

(** [link_chain t idxs n] links the live entries among [idxs.(0 .. n -
    1)], in that order, into one scan chain (dissolving any chains they
    belonged to). *)
val link_chain : t -> int array -> int -> unit

(** Statistics. *)
val used_bytes : t -> int

val evictions : t -> int

val reorganizations : t -> int

(** [register_stats t stats ~prefix] publishes eviction/reorg counters
    (by reference) and occupancy gauges under [<prefix>.*]. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit

(** Drop every entry (crash simulation: DRAM loses power). *)
val clear : t -> unit
