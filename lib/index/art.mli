(** Adaptive Radix Tree (Leis et al., ICDE'13) over string keys.

    A second Persistent Key Index implementation: the paper stresses that
    Prism "has no dependency on PACTree" and accepts any range index
    (§4.1, §6), so the store can be configured with either this ART or the
    default B+-tree ({!Btree}); both expose the same operations.

    Nodes adapt among 4 / 16 / 48 / 256-fanout layouts as they fill, with
    path compression for common prefixes. Keys are treated as byte
    strings; iteration order is bytewise lexicographic, matching
    [String.compare]. The [on_access] callback reports the bytes touched
    per node visited, like {!Btree}. *)

type 'v t

val create :
  on_access:([ `Read | `Write ] -> int -> unit) -> unit -> 'v t

val length : 'v t -> int

val is_empty : 'v t -> bool

val find : 'v t -> string -> 'v option

(** [insert t key v] binds (replacing); returns the previous binding. *)
val insert : 'v t -> string -> 'v -> 'v option

val delete : 'v t -> string -> bool

(** [iter_range t ~from ~count f] calls [f key v] on up to [count]
    bindings with keys [>= from], in ascending order, charging every node
    it visits. [f] must not modify [t]. *)
val iter_range : 'v t -> from:string -> count:int -> (string -> 'v -> unit) -> unit

(** [scan t ~from ~count] is the bindings {!iter_range} visits, as a
    list. *)
val scan : 'v t -> from:string -> count:int -> (string * 'v) list

val iter : 'v t -> (string -> 'v -> unit) -> unit

val fold : 'v t -> 'a -> ('a -> string -> 'v -> 'a) -> 'a

(** Estimated resident bytes (NVM footprint metric). *)
val approx_bytes : 'v t -> int
