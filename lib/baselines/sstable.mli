(** Sorted String Table for the LSM substrate.

    Entries are immutable, sorted, and partitioned into fixed-size blocks
    (4 KiB, the RocksDB default) with a sparse block index (first key per
    block) and a per-table bloom filter. A [None] value is a tombstone.

    Content lives in memory; device time is charged by the engine when a
    block is read (on cache miss) or when the table is written out. *)

type entry = string * bytes option

type t

(** Monotone id, assigned by [build]. *)
val id : t -> int

val min_key : t -> string

val max_key : t -> string

val entries : t -> int

(** Approximate on-disk bytes (entries plus block/index overhead). *)
val bytes : t -> int

val block_count : t -> int

(** [build entries] from an ascending-sorted, duplicate-free list. *)
val build : entry list -> t

(** [may_contain t key] — bloom filter check (charge CPU, no IO). *)
val may_contain : t -> string -> bool

(** [locate_block t key] is the index of the block that could hold [key],
    or [None] when outside the table's range. *)
val locate_block : t -> string -> int option

(** [find_in_block t ~block key] — binary search within a block. The
    caller is responsible for charging the block read. *)
val find_in_block : t -> block:int -> string -> bytes option option

(** [block_bytes t ~block] — bytes to charge for reading this block. *)
val block_bytes : t -> block:int -> int

(** [iter_from t key f] visits entries with key [>= key] in order, calling
    [f ~block key value]; stops when [f] returns [false]. *)
val iter_from :
  t -> string -> (block:int -> string -> bytes option -> bool) -> unit

(** [overlaps t ~min ~max] — key-range intersection test. *)
val overlaps : t -> min:string -> max:string -> bool

(** All entries in order (compaction input). *)
val to_list : t -> entry list
