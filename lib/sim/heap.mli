(** 4-ary min-heap keyed by [(time, seq)], used as the simulator's event
    queue. [seq] breaks ties so that events scheduled at the same instant
    fire in insertion order, which keeps simulations deterministic.

    Entries are stored structure-of-arrays (flat [float array] keys, no
    per-entry record; payloads sit in stable slots so sifting never moves
    them), and {!advance_if_due}, {!min_aux} and {!pop_unsafe} neither
    allocate nor box, so the engine's event loop can run allocation-free.
    Each entry also carries an auxiliary [int] channel ([aux], default 0) —
    the engine rides its scheduling labels on it so it needs no per-event
    record of its own. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t ~time ~seq ?aux v] inserts [v] with priority [(time, seq)] and
    auxiliary payload [aux] (default [0]). Does not allocate beyond
    occasional capacity doubling. *)
val push : 'a t -> time:float -> seq:int -> ?aux:int -> 'a -> unit

(** [push_aux] is [push] with the aux channel required. Its prologue is
    loop-free and inlinable even without flambda, so a call site that
    computes [time] locally pays no float boxing (the sift runs out of
    line on the heap's unboxed channels). The engine's dispatch path uses
    this entry point. *)
val push_aux : 'a t -> time:float -> seq:int -> aux:int -> 'a -> unit

(** [advance_if_due t clock] — engine dispatch protocol. [clock] is a
    caller-owned float array: cell 0 holds the simulation's "now", cell 1
    the run limit. When the heap is nonempty and its minimum time is
    [<= clock.(1)], the minimum time is written into [clock.(0)] and the
    call returns [true] (read {!min_aux} and pop next). No float crosses
    the call boundary, so the dispatch loop stays allocation-free even
    under dune's dev profile ([-opaque], no cross-module inlining). *)
val advance_if_due : 'a t -> float array -> bool

(** [advance_alone t clock] — the engine's in-place delay. [clock.(2)]
    holds the delay. When [clock.(0) +. clock.(2)] is [<= clock.(1)] and
    strictly below the minimum time (or the heap is empty), that time is
    written into [clock.(0)] and the call returns [true]: an entry pushed
    there would be popped next, alone in its tie set, so the push and pop
    can be skipped. Otherwise nothing changes and the call returns
    [false]. The delay and the new time never cross the call boundary,
    so neither is boxed. *)
val advance_alone : 'a t -> float array -> bool

(** [push_after t ~clock ~after ~seq ~aux v] inserts [v] at time
    [clock.(0) +. after] — the addition happens inside the heap, so the
    scheduling call site never boxes a freshly computed event time.
    [after] must be non-negative. *)
val push_after :
  'a t -> clock:float array -> after:float -> seq:int -> aux:int -> 'a -> unit

(** [push_delay t ~clock ~seq ~aux v] is [push_after] with [after] read
    from [clock.(2)], the cell {!advance_alone} reads: the engine parks a
    process there when it cannot advance in place. *)
val push_delay : 'a t -> clock:float array -> seq:int -> aux:int -> 'a -> unit

(** [push_until t ~clock ~cells ~i ~seq ~aux v] inserts [v] at
    [clock.(0) +. (cells.(i) -. clock.(0))], exactly where {!push_after}
    puts the delay [cells.(i) -. clock.(0)]. *)
val push_until :
  'a t ->
  clock:float array ->
  cells:float array ->
  i:int ->
  seq:int ->
  aux:int ->
  'a ->
  unit

(** [min_aux t] is the aux channel of the minimum entry, or [0] when
    empty. *)
val min_aux : 'a t -> int

(** [pop_unsafe t] removes the minimum entry and returns its payload
    without allocating. Read the key ({!advance_if_due}, {!min_aux},
    {!gather_ties}) {e before} popping if it is needed.
    @raise Invalid_argument on an empty heap. *)
val pop_unsafe : 'a t -> 'a

(** {2 Tie sets}

    The engine's non-FIFO dispatch picks one of the entries tied at the
    minimum time without taking the others out of the heap. *)

(** [gather_ties t] finds the entries whose time equals the minimum time
    and returns how many there are ([0] when empty). They are held in
    seq order — index [0] is the minimum entry — until the heap next
    changes; read them with {!tie_seq}/{!tie_aux} and take one out with
    {!remove_tie}. Allocates only when the heap has outgrown every
    earlier gather. *)
val gather_ties : 'a t -> int

(** [tie_seq t k] is the seq of the [k]th gathered tie. *)
val tie_seq : 'a t -> int -> int

(** [tie_aux t k] is the aux channel of the [k]th gathered tie. *)
val tie_aux : 'a t -> int -> int

(** [remove_tie t k] removes the [k]th gathered tie and returns its
    payload; every other entry stays where the heap order puts it. Index
    [0] is {!pop_unsafe}. Invalidates the gathered set. *)
val remove_tie : 'a t -> int -> 'a

(** [clear t] drops every entry in O(1), releasing the backing storage. *)
val clear : 'a t -> unit
