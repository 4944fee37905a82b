(** Log-structured Value Storage on one SSD (§5.1, §5.2).

    Space is divided into fixed-size chunks. A chunk holds a sequence of
    records [backward ptr (8) | length (4) | reserved (4) | payload],
    16-byte aligned, terminated by a -1 sentinel — exactly the per-value
    metadata the paper stores for recovery. Each chunk has a DRAM validity
    bitmap (rebuilt on recovery from HSIT coupling, §5.5) and DRAM slot
    metadata mapping slot ordinals to byte ranges.

    Chunks carry a generation number bumped on every recycle. All slot
    accessors take the generation the caller obtained from the HSIT
    location; a stale generation makes invalidations no-ops and lookups
    report "gone", letting readers retry instead of touching a recycled
    chunk. This removes any need to delay chunk reuse behind epochs (and
    with it a reclamation/allocation deadlock cycle).

    Writes happen at chunk granularity through the device's io_uring, so
    the SSD sees large sequential IO; reads are per-slot entries coalesced
    by the read path (TCQ or TA batcher). Garbage collection greedily
    picks the chunks with the fewest live bytes and relocates survivors
    (§5.2); it runs as a background process, woken when free chunks drop
    below the watermark. *)

type t

(** A mover's batch as parallel arrays: entry [i < count] moves the value
    [values.(i)] of HSIT entry [ids.(i)] from the location whose clean
    HSIT word is [froms.(i)] (see {!Location.vs_word}). *)
type moves = {
  mutable ids : int array;
  mutable values : bytes array;
  mutable froms : int array;
  mutable count : int;
}

(** [moves ()] is an empty batch; it grows as entries are added. *)
val moves : unit -> moves

val add_move : moves -> id:int -> value:bytes -> from_:int -> unit

(** [clear_moves m] empties [m] for reuse and drops its payloads. *)
val clear_moves : moves -> unit

(** GC runs while fewer than [1 - gc_watermark] of the chunks are free
    (never fewer than 2); [gc_watermark] defaults to 0.75. *)
val create :
  ?gc_watermark:float ->
  Prism_sim.Engine.t ->
  id:int ->
  size:int ->
  chunk_size:int ->
  queue_depth:int ->
  spec:Prism_device.Spec.t ->
  cost:Prism_device.Cost.t ->
  t

val id : t -> int

val free_chunks : t -> int

val chunk_size : t -> int

val uring : t -> Prism_device.Io_uring.t

(** Device-level statistics for write-amplification accounting. *)
val device : t -> Prism_device.Model.t

(** Backing content image — exposed so the checker can install a
    write-completion hook ({!Prism_media.Ssd_image.set_write_hook}). *)
val image : t -> Prism_media.Ssd_image.t

(** Number of garbage-collection passes completed. *)
val gc_runs : t -> int

(** Current generation of a chunk. *)
val chunk_gen : t -> chunk:int -> int

(** [write_chunk t values] allocates a free chunk (blocking while none is
    available, and never taking the one chunk reserved for GC), assembles
    the records, and submits one asynchronous chunk-sized write. Returns
    [(chunk, gen, write)] where slot [i] corresponds to
    [List.nth values i]. Slots start invalid; the caller marks them valid
    once it has repointed HSIT (§5.2), as {!install} does. Values must
    fit in one chunk. The store writes through {!install}; only
    [test_core_units]'s Value Storage cases call it directly. *)
val write_chunk :
  t ->
  (int * bytes) list ->
  int * int * Prism_device.Io_uring.request

(** [seal t ~chunk] marks a freshly written chunk as fully published
    (HSIT pointers and validity bits in place). Garbage collection only
    considers sealed chunks, so an in-publication chunk can never be
    recycled out from under its writer. The store seals through {!install};
    only [test_core_units]'s Value Storage cases call it directly. *)
val seal : t -> chunk:int -> unit

(** [pick rng storages] is a random idle storage (no in-flight IO), or a
    random one when all are busy: the target of every mover (§5.2). *)
val pick : Prism_sim.Rng.t -> t array -> t

(** [install ?chunk t m ~pos ~len ~repoint ~moved] moves the entries
    [pos .. pos + len - 1] of [m] into one chunk of [t] (the given
    [chunk], already allocated, or a fresh one), waits for the write,
    then for each slot in order: if [repoint ~hsit_id ~from_ ~to_] wins
    the HSIT CAS (locations as clean words), marks the slot valid and
    calls [moved from_]. Last, seals the chunk. Every mover — PWB
    reclamation, sort-on-evict and GC — goes through this one step
    (§5.2, §5.4). The chunk-write buffer comes from, and returns to, a
    per-storage free list once the write has landed. *)
val install :
  ?chunk:int ->
  t ->
  moves ->
  pos:int ->
  len:int ->
  repoint:(hsit_id:int -> from_:int -> to_:int -> bool) ->
  moved:(int -> unit) ->
  unit

(** [backptr t ~gen ~chunk ~slot] is the embedded backward pointer, or
    -1 when the generation is stale or the slot unknown. *)
val backptr : t -> gen:int -> chunk:int -> slot:int -> int

(** [read_run t ~gen ~chunk ~words ~values ~order ~pos ~len] prepares
    ONE read whose single IO covers the slots of the chunk named by
    [words.(i)] (clean HSIT words, see {!Location.vs_slot}) for each [i]
    among [order.(pos .. pos + len - 1)]: a point read is a run of one,
    and a scan reads every slot it needs from one chunk at once, which
    after SVC reorganization is one contiguous key range (§4.4). At
    completion each slot's payload lands in [values.(i)] — unless the
    chunk generation went stale, in which case [values] is left as it
    was. Returns a read handle, or -1 when the generation is already
    stale. Handles and their requests are pooled: submit
    [read_request t k], and once its waiter has returned and [values]
    is consumed, give the handle back with {!release_read}. *)
val read_run :
  t ->
  gen:int ->
  chunk:int ->
  words:int array ->
  values:bytes array ->
  order:int array ->
  pos:int ->
  len:int ->
  int

(** The IO request of read handle [k]. *)
val read_request : t -> int -> Prism_device.Io_uring.request

(** [release_read t k] returns handle [k] to the pool; its request may
    be submitted again by the next {!read_run}. *)
val release_read : t -> int -> unit

(** [read_slot_sync t ~gen ~chunk ~slot] is a single-slot synchronous read;
    [None] when the generation went stale. Only [test_core_units]'s Value
    Storage cases call it. *)
val read_slot_sync : t -> gen:int -> chunk:int -> slot:int -> bytes option

(** Validity bitmap operations (§5.1). Stale generations are no-ops. *)
val set_valid : t -> gen:int -> chunk:int -> slot:int -> bool -> unit

val is_valid : t -> gen:int -> chunk:int -> slot:int -> bool

(** [live_slots t ~chunk] counts the chunk's valid slots. Only tests call it:
    [test_core_units] "validity bitmap", "stale gen" and "recover". *)
val live_slots : t -> chunk:int -> int

(** [iter_valid t f] visits every currently valid slot with its backward
    pointer (residency audits in tests). Only [test_store]'s single-home audit
    calls it. *)
val iter_valid :
  t -> (gen:int -> chunk:int -> slot:int -> hsit_id:int -> unit) -> unit

(** [pick_victims t] is the chunks the next GC pass compacts, in pick
    order: the shortest run of sealed chunks, least live bytes first
    (ties: lowest index), that nets a freed chunk and whose outputs fit
    the free chunks; [[]] when there is none. *)
val pick_victims : t -> int list

(** [start_gc t ~relocate] spawns the background GC process. [relocate
    ~hsit_id ~from_ ~to_] must atomically repoint the HSIT entry (clean
    words) and return whether it succeeded (the CAS may lose to a
    concurrent update). *)
val start_gc :
  t ->
  relocate:(hsit_id:int -> from_:int -> to_:int -> bool) ->
  unit

(** Ask GC to run if the free-chunk watermark is breached. *)
val poke_gc : t -> unit

(** Recovery (§5.5): rescan every chunk's records from the durable image,
    rebuild slot metadata (generations restart at 0), and set validity
    from [couple] (does the durable HSIT point back at this slot,
    generation ignored?). Chunks with no live slot return to the free
    list. Charges device time for the metadata scan. *)
val recover : t -> couple:(hsit_id:int -> Location.t -> bool) -> unit

(** [check_live t] recomputes every chunk's live bytes (the greedy GC's
    victim key) by walking its slots, and raises [Failure] if the
    incrementally maintained count disagrees (for tests). Kept as an audit:
    [test_store] "vs gc under pressure" and [test_core_units]'s live-bytes
    property call it. *)
val check_live : t -> unit

(** [register_stats t stats ~prefix] publishes the GC-run counter (by
    reference), occupancy and resident-bytes gauges, and the device's and ring's metrics
    under [<prefix>.*]. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
