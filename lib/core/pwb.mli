(** Persistent Write Buffer (§4.3): a per-thread append-only ring on NVM.

    Every write first lands here with an embedded backward pointer (the
    HSIT entry id), giving immediate durability at NVM latency; a
    background reclaimer later migrates live values to Value Storage and
    advances the ring head. Offsets handed out are *virtual* (monotonically
    increasing); the physical position is [voff mod capacity], so a stale
    HSIT pointer can never alias a recycled record — the coupling check
    compares virtual offsets.

    Record layout: 16-byte header [backward ptr (8) | value length (4) |
    reserved (4)] followed by the payload. Records never straddle the ring
    boundary; the tail skips to the boundary with an explicit pad record
    (or an implicit skip when fewer than 16 bytes remain). *)

type t

val create : Prism_media.Nvm.t -> thread:int -> size:int -> t

val thread : t -> int

val capacity : t -> int

(** Virtual head/tail; [tail - head] bytes are in use (including pads). *)
val head : t -> int

val tail : t -> int

val used : t -> int

(** Fraction of the ring in use. *)
val utilization : t -> float

(** [append t ~hsit_id ~value] persists a record and returns its virtual
    offset. Blocks (in virtual time) while the ring is full, waiting for
    reclamation to advance the head. *)
val append : t -> hsit_id:int -> value:bytes -> int

(** [read t ~voff ~hsit_id] returns the record's payload when its
    backward pointer is [hsit_id], else [Bytes.empty] (the payload is
    read, and charged, either way). Charges NVM read time. Raises
    [Invalid_argument] if [voff] is outside [head, tail) or is a pad
    record. *)
val read : t -> voff:int -> hsit_id:int -> bytes

(** [fold_records t f acc] walks records from head to tail (skipping
    pads): [f acc ~voff ~hsit_id ~len]. Charges header reads. Only tests call
    it: [test_core_units] "fold skips pads". *)
val fold_records :
  t -> ('a -> voff:int -> hsit_id:int -> len:int -> 'a) -> 'a -> 'a

(** [next_record t ~voff found] finds the first record at virtual offset
    [>= voff] (skipping pads) and returns its offset, leaving its
    backward pointer in [found.(0)] and its payload length in
    [found.(1)]; -1 when the live region past [voff] holds no record.
    Charges header reads. *)
val next_record : t -> voff:int -> int array -> int

(** [record_extent ~len] is the bytes a record with a [len]-byte payload
    occupies (header plus padding). *)
val record_extent : len:int -> int

(** [advance_head t ~to_] releases space up to virtual offset [to_] and
    wakes blocked appenders. *)
val advance_head : t -> to_:int -> unit

(** Recovery: [read_durable t ~voff found] reads a record from the
    durable NVM image without charging time, returning its payload and
    leaving its backward pointer in [found.(0)]; -1 there (and
    [Bytes.empty]) when the header is insane. *)
val read_durable : t -> voff:int -> int array -> bytes

(** Recovery: reset the ring to cover exactly the given virtual range
    (both 0 to make it empty). *)
val reset_range : t -> head:int -> tail:int -> unit
