(** Content image of an SSD-backed file.

    Timing lives in {!Prism_device.Io_uring} / {!Prism_device.Model}; this
    module only holds the bytes. Data written through the async IO engine
    is applied by the entry's completion action, so a crash before
    completion simply means the bytes were never applied — matching
    O_DIRECT semantics where acknowledged writes are durable and in-flight
    writes are lost.

    Only the prefix written so far is held in memory ({!Backing}); the
    rest of the image reads as zero. *)

type t

(** [create ~size] is a zeroed image of [size] bytes; no bytes are
    allocated until the first write. *)
val create : size:int -> t

val size : t -> int

(** Host bytes currently backing the image: the written prefix, rounded
    up by the buffer's growth, never more than {!size}. *)
val resident_bytes : t -> int

(** [read t ~off ~len] copies bytes out of the image. *)
val read : t -> off:int -> len:int -> bytes

(** [write t ~off src] applies bytes (call from an IO completion action). *)
val write : t -> off:int -> bytes -> unit

(** [blit_to t ~off dst ~dst_off ~len] copies without allocating. *)
val blit_to : t -> off:int -> bytes -> dst_off:int -> len:int -> unit

(** Number of applied writes so far — each is an SSD write-completion
    durability boundary a crash can be injected after. Only [test_media]'s
    lazy-image property calls it. *)
val write_count : t -> int

(** [set_write_hook t (Some f)] calls [f count] immediately after every
    {!write} lands. Used by the checker's crash-point sweep (the hook may
    raise to abort the simulation at that instant). [None] uninstalls. *)
val set_write_hook : t -> (int -> unit) option -> unit

(** [set_read_hook t (Some f)] calls [f ~off ~len] at every {!read}, before
    the bytes are copied out: the order in which value reads land. Only
    [test_store]'s scan read-order pin installs one. [None] uninstalls. *)
val set_read_hook : t -> (off:int -> len:int -> unit) option -> unit
