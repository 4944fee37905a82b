(** NVM-resident value tier for hotness-driven placement.

    A region of the shared NVM device holding whole values that the
    placement policy decided are hot enough to skip the SSD. Records are
    PWB-shaped — [backward ptr (8) | length (4) | reserved (4) | payload],
    16-byte aligned — so the well-coupling rule of §5.5 extends verbatim:
    an HSIT entry pointing at a tier offset is live iff the record there
    points back at the entry.

    Unlike the PWB ring, residency is long-lived and values are freed in
    arbitrary order, so space is managed by a DRAM free-range (first-fit,
    coalescing) allocator. The allocator and the offset map are DRAM-only:
    a crash loses them and {!recover} rebuilds both from the durable HSIT
    couplings, exactly like Value Storage validity bitmaps.

    Every append is a {!Prism_media.Nvm.write_persist}, so the promote
    copy is itself a persist boundary the crash-point sweep can cut power
    at. *)

type t

(** [create nvm ~capacity] carves [capacity] bytes out of [nvm]. *)
val create : Prism_media.Nvm.t -> capacity:int -> t

(** [append t ~hsit_id ~value] writes and persists one record; returns its
    tier offset, or [None] when no free range fits. *)
val append : t -> hsit_id:int -> value:bytes -> int option

(** Bytes of tier space an appended record of [len] payload bytes
    occupies. *)
val record_extent : len:int -> int

(** [read t ~noff ~expect] returns the payload at [noff] if the record
    there is still owned by HSIT entry [expect]; charges one NVM read.
    [None] means the value moved (freed or reallocated) while the caller
    was resolving — retry from the HSIT. The ownership check is repeated
    after the device access, so a record freed during the read's latency
    is not returned. *)
val read : t -> noff:int -> expect:int -> bytes option

(** [read_durable t ~noff] parses the record at [noff] in the durable
    image: [(hsit_id, payload)], or [None] if no plausible record is
    there. Recovery only; charges no time. *)
val read_durable : t -> noff:int -> (int * bytes) option

(** [free t ~noff] releases the record's range (no device traffic — the
    bytes are garbage once unreachable, like a dead PWB record). Unknown
    offsets are no-ops (the record may have been freed by a racing
    writer). *)
val free : t -> noff:int -> unit

(** [owner t ~noff] is the HSIT id the DRAM map records at [noff]. *)
val owner : t -> noff:int -> int option

(** [iter t f] visits every resident record as [f ~hsit_id ~noff ~len]
    (invariant checks). *)
val iter : t -> (hsit_id:int -> noff:int -> len:int -> unit) -> unit

(** Drop all DRAM state (crash: the allocator and offset map are
    volatile). *)
val reset : t -> unit

(** [recover t ~live] rebuilds the DRAM map and free ranges from the
    durable couplings [(hsit_id, noff)] that survived the crash. Charges
    no time (the store's recovery pass bills NVM traffic in bulk). *)
val recover : t -> live:(int * int) list -> unit

(** [register_stats t stats ~prefix] publishes footprint gauges under
    [<prefix>.*]. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
