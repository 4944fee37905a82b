(** LSM memtable: a skiplist with byte accounting. A [None] value is a
    tombstone (deletes must survive until compaction merges them away). *)

type t

val create : rng:Prism_sim.Rng.t -> unit -> t

(** [put t key v] — [v = None] records a tombstone. Returns the number of
    skiplist nodes traversed (CPU charge hook). *)
val put : t -> string -> bytes option -> int

(** [find t key] — [Some None] means "deleted here", [None] means "not
    present, look deeper". *)
val find : t -> string -> bytes option option

val bytes : t -> int

(** Ascending entries for a flush. *)
val to_list : t -> Sstable.entry list

(** [scan t ~from ~count] ascending bindings with key [>= from]. *)
val scan : t -> from:string -> count:int -> (string * bytes option) list

(** [iter_while t f] visits ascending entries while [f] returns [true]. *)
val iter_while : t -> (string -> bytes option -> bool) -> unit

(** [delete t key] physically removes a binding (container draining). *)
val delete : t -> string -> unit
