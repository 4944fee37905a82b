(** B+-tree range index over string keys.

    This is the repository's PACTree substitute (DESIGN.md §1): Prism's
    Persistent Key Index only needs an ordered index with lookup / insert /
    delete / scan that guarantees its own crash consistency, and the paper
    states the design is independent of the concrete index (§4.1).

    The tree itself is an in-memory structure; media costs are charged
    through the [on_access] callback invoked once per node visited, with the
    node's approximate size in bytes, so the owner can bill NVM (Prism) or
    DRAM (KVell) time for each traversal. *)

type 'v t

(** [create ?order ~on_access ()]. [order] is the maximum number of keys
    per node (default 64); [on_access kind bytes] is called for every node
    touched ([`Read] on traversal, [`Write] when a node is modified or
    created). *)
val create :
  ?order:int -> on_access:([ `Read | `Write ] -> int -> unit) -> unit -> 'v t

val length : 'v t -> int

val is_empty : 'v t -> bool

(** [find t key] is the value bound to [key], if any. *)
val find : 'v t -> string -> 'v option

(** [insert t key v] binds [key] to [v], replacing any previous binding.
    Returns the previous binding, if any. *)
val insert : 'v t -> string -> 'v -> 'v option

(** [delete t key] removes the binding; returns [true] if it existed.
    Uses lazy deletion (no rebalancing), as many production B-trees do. *)
val delete : 'v t -> string -> bool

(** [iter_range t ~from ~count f] calls [f key v] on up to [count]
    bindings with keys [>= from], in ascending key order, charging every
    leaf it visits. [f] must not modify [t]. *)
val iter_range : 'v t -> from:string -> count:int -> (string -> 'v -> unit) -> unit

(** [scan t ~from ~count] is the bindings {!iter_range} visits, as a
    list. *)
val scan : 'v t -> from:string -> count:int -> (string * 'v) list

(** [iter t f] visits all bindings in ascending key order. *)
val iter : 'v t -> (string -> 'v -> unit) -> unit

(** [fold t init f] folds over bindings in ascending key order. *)
val fold : 'v t -> 'a -> ('a -> string -> 'v -> 'a) -> 'a

(** Estimated resident bytes of all nodes — the NVM-footprint metric. *)
val approx_bytes : 'v t -> int

(** Tree height (leaf = 1); exposed for cost assertions in tests. Only
    [test_index] "splits" calls it. *)
val height : 'v t -> int
