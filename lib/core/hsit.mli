(** Heterogeneous Storage Index Table (§4.5).

    An NVM-resident array of 16-byte entries. Each entry packs the three
    forward pointers: the primary word holds the PWB-or-VS location (a value
    lives in exactly one of the two, §4.5) plus the dirty bit used by the
    flush-on-read durable-linearizability protocol (§5.4); the second word
    holds the SVC pointer, which is meaningless after a crash and therefore
    never persisted.

    Entry indices act as backward pointers: values on PWB and Value Storage
    embed their entry index, and an entry/value pair is "well-coupled" when
    they refer to each other — the foundation of crash consistency (§5.5).

    Free entries are kept on a DRAM free list; it is rebuilt during
    recovery from the key index's reachable set, so it needs no crash
    consistency of its own. *)

type t

(** [create nvm ~capacity] carves [capacity] entries out of [nvm].

    [fault_skip_flush] (default [false]) is a deliberate bug for the
    checking subsystem: pointer installs and flush-on-read skip the persist
    while still clearing the dirty bit, so the §5.4 protocol silently loses
    its durability guarantee. The crash-point sweep must catch the
    resulting lost acknowledged writes. Never enable outside tests. *)
val create : ?fault_skip_flush:bool -> Prism_media.Nvm.t -> capacity:int -> t

(** Entries currently allocated. *)
val live : t -> int

(** NVM bytes occupied by the table. *)
val bytes : t -> int

(** [alloc t] takes a free entry and initializes it to [Nowhere]/no-SVC.
    Raises [Failure] when the table is full. *)
val alloc : t -> int

(** [free t id] returns an entry to the free list. The caller is
    responsible for epoch-safety (§5.4). *)
val free : t -> int -> unit

(** [read_primary t id] returns the current location. If the entry's dirty
    bit is set, performs flush-on-read: persists the word on behalf of the
    writer and clears the bit (§5.4). *)
val read_primary : t -> int -> Location.t

(** [read_primary_word t id] is {!read_primary} as the location's clean
    word (see {!Location.vs_word}): what the read path and the movers
    use, so no location is built. *)
val read_primary_word : t -> int -> int

(** [update_primary t id ~expect loc] is the writer protocol: atomically
    replaces the word only if the current location still equals [expect]
    (CAS), sets the dirty bit, persists, then clears the bit. Returns
    [false] when the CAS lost a race. *)
val update_primary : t -> int -> expect:Location.t -> Location.t -> bool

(** [update_primary_word t id ~expect w] is {!update_primary} on clean
    words. *)
val update_primary_word : t -> int -> expect:int -> int -> bool

(** [write_primary t id loc] is the unconditional variant, used by the
    owner thread on the put path where no other writer can interfere (all
    writes go through the per-thread PWB, §5.4 "no write/write
    conflicts"). *)
val write_primary : t -> int -> Location.t -> unit

(** [exchange_primary_word t id w] is [write_primary] on clean words
    (see {!Location.vs_word}), returning the word its atomic swap
    replaced. A writer that must release the value it supersedes
    releases this one: a location read earlier may have been moved since
    (by reclamation, sort-on-evict or GC), and releasing the stale copy
    would leave the new home live and unreferenced. *)
val exchange_primary_word : t -> int -> int -> int

(** SVC pointer accessors. [None] is encoded as -1. Volatile (no persist,
    no flush cost beyond the NVM store). *)
val read_svc : t -> int -> int option

(** [svc_index t id] is {!read_svc} as a bare word: the index, or -1. *)
val svc_index : t -> int -> int

(** [cas_svc_index t id ~expect v] atomically updates the SVC pointer,
    as bare words (-1 for none), if it still is [expect] (used by
    lock-free cache admission, §4.4). *)
val cas_svc_index : t -> int -> expect:int -> int -> bool

(** Recovery interface: the durable view of an entry's primary word. The
    dirty bit having survived means the pointer itself was persisted, so
    the location is trusted (§5.4). *)
val durable_primary : t -> int -> Location.t

(** [recover_entry t id] re-initializes the volatile word from the durable
    image with the dirty bit cleared and nullifies the SVC pointer; marks
    the entry allocated. *)
val recover_entry : t -> int -> unit

(** [restore_primary t id loc] rewrites an entry during recovery without
    charging device time (the recovery pass accounts HSIT traffic in
    bulk). *)
val restore_primary : t -> int -> Location.t -> unit

(** [rebuild_free_list t ~reachable] resets the allocator: entries whose
    ids satisfy [reachable] are live, everything else is free. *)
val rebuild_free_list : t -> reachable:(int -> bool) -> unit
