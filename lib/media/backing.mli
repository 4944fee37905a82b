(** Lazily backed byte images.

    A simulated device image is logically zero-filled at its full
    provisioned size, but only the prefix a run has written is held in
    host memory: the buffer grows on write, and bytes past it read as
    zero. Stores lay their data out from offset 0 (bump-allocated NVM
    regions, lowest-first SSD chunks), so the backed prefix tracks the
    bytes in use rather than the bytes provisioned. *)

(** [grow b ~need ~limit] is [b] zero-extended so that [need] bytes are
    backed: to at least twice its length (and at least 4 KiB), never
    past the image's logical size [limit]. Doubling keeps the copying
    amortised O(1) per written byte. *)
val grow : bytes -> need:int -> limit:int -> bytes

(** [extend b len] is a copy of [b] zero-extended to [len] bytes. *)
val extend : bytes -> int -> bytes

(** [sub b off len] is [Bytes.sub b off len], except that bytes past the
    end of [b] read as zero. *)
val sub : bytes -> int -> int -> bytes

(** [blit_out b off dst dst_off len] is [Bytes.blit b off dst dst_off
    len], except that bytes past the end of [b] read as zero. *)
val blit_out : bytes -> int -> bytes -> int -> int -> unit
