(** Byte-addressable non-volatile memory region.

    Models Optane DCPMM semantics as seen from software:

    - loads and stores are synchronous CPU accesses charged to the calling
      thread at the device's latency/bandwidth (through a shared pipeline,
      so NVM's limited bandwidth shows up under concurrency);
    - stores land in the (volatile) CPU cache and only become durable after
      an explicit {!persist} ([clwb]+[sfence]) of the containing cache
      lines;
    - {!crash} discards every line that was written but not persisted,
      which is exactly the failure model Prism's backward/forward pointer
      protocol defends against (§5.5).

    The region keeps two images: the volatile view that normal reads see,
    and the durable image that survives {!crash}. Both hold only the
    prefix of the region written so far ({!Backing}); the rest reads as
    zero. *)

type t

(** [create engine ~spec ~size] creates a zeroed region of [size] bytes
    backed by a device with [spec]'s timing. No image bytes are
    allocated until the first store. *)
val create :
  Prism_sim.Engine.t ->
  spec:Prism_device.Spec.t ->
  size:int ->
  unit ->
  t

val size : t -> int

(** Bytes of the region currently in use, as tracked by {!note_alloc};
    purely an accounting aid for the NVM-footprint experiment. *)
val allocated : t -> int

val note_alloc : t -> int -> unit

(** Host bytes currently backing the two images: twice the written
    prefix, rounded up by the buffers' growth, never more than twice
    {!size}. *)
val resident_bytes : t -> int

(** [read t ~off ~len] returns a copy of the volatile view. Charges the
    calling thread one NVM read access of [len] bytes. *)
val read : t -> off:int -> len:int -> bytes

(** [read_into t ~off dst] is [read t ~off ~len:(Bytes.length dst)]
    copied into [dst] instead of a fresh buffer: same charge, and the
    bytes are those visible when the access completes. *)
val read_into : t -> off:int -> bytes -> unit

(** [write t ~off src] stores [src] at [off] in the volatile view and marks
    the lines dirty. Charges one NVM write access. *)
val write : t -> off:int -> bytes -> unit

(** [persist t ~off ~len] flushes the cache lines covering the range and
    fences; after it returns the range is durable. *)
val persist : t -> off:int -> len:int -> unit

(** [write_persist t ~off src] is [write] followed by [persist] of the same
    range. *)
val write_persist : t -> off:int -> bytes -> unit

(** Words are immediate [int]s, so no word access boxes. A word is
    stored as its [int] sign-extended to 8 little-endian bytes and loaded
    as those bytes' low 63 bits: every [int] round-trips, and an encoding
    that fits in 63 bits (the HSIT's, see [Location]) reads back exactly. *)

(** [get_word t off] loads the word at [off] from the volatile view (one
    small access). *)
val get_word : t -> int -> int

(** [set_word t off w ~persist] stores [w] at [off]; [persist]
    additionally flushes the word's line. *)
val set_word : t -> int -> int -> persist:bool -> unit

(** [cas_word t off ~mask ~expect w] models an atomic read-modify-write
    instruction (CAS family) on the word at [off]: after the access cost
    is charged, it stores [w] (volatile, marking the line dirty) if the
    then-current word [cur] satisfies [cur land mask = expect], with no
    intervening simulation event, and returns [cur]. [~mask:(-1)] is a
    plain CAS, [~mask:0 ~expect:0] an unconditional swap. Use this —
    never a read followed by [set_word] — for any word that other
    threads update concurrently. *)
val cas_word : t -> int -> mask:int -> expect:int -> int -> int

(** [crash t] simulates a power failure: the volatile view reverts to the
    durable image and all dirty-line tracking is cleared. Timing costs are
    not charged (nobody is running). *)
val crash : t -> unit

(** [read_durable t ~off ~len] inspects the durable image directly — for
    tests and recovery assertions only; charges no time. *)
val read_durable : t -> off:int -> len:int -> bytes

(** [restore t ~off src] writes both images directly without charging
    device time — recovery only, where the caller accounts the traffic in
    bulk (recovery is bandwidth-bound and parallelized, §5.5). *)
val restore : t -> off:int -> bytes -> unit

(** Number of currently dirty (written, unpersisted) cache lines. Only tests
    call it: [test_media] "dirty tracking", "dirty map vs model", "rmw
    declines" and the lazy-image property. *)
val dirty_lines : t -> int

(** [set_persist_hook t (Some f)] calls [f count] immediately after every
    {!persist} makes its range durable. The checker's crash-point sweep
    uses the hook to cut power at a chosen boundary (the hook may raise;
    the exception propagates out of {!Prism_sim.Engine.run}). [None]
    uninstalls. *)
val set_persist_hook : t -> (int -> unit) option -> unit

(** Underlying timing model, for endurance/bandwidth statistics. *)
val device : t -> Prism_device.Model.t

(** [register_stats t stats ~prefix] publishes persist, dirty-line, alloc
    and resident-bytes gauges plus the underlying device's traffic counters under
    [<prefix>.*]. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
