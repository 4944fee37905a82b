(** Storage target for the LSM substrate: where a component (WAL, a level,
    SSTables) physically lives. Carries timing only — baseline engines
    keep their content in memory and charge device time per access, which
    exercises the same queueing/bandwidth behaviour as Prism's media
    without duplicating its byte-level plumbing. *)

type t

(** Striped flash (mdadm RAID-0, §7.1), block-granular. *)
val ssd_raid : Prism_device.Raid.t -> t

(** NVM behind a filesystem (e.g. RocksDB-NVM's SSTables on a DAX fs):
    accesses still pay the syscall storage-stack cost (§2.1). *)
val nvm_dev : Prism_device.Model.t -> t

(** Raw byte-addressable NVM (custom allocator, load/store access): no
    storage-stack overhead. Used for MatrixKV's matrix container. *)
val nvm_raw : Prism_device.Model.t -> t

(** [write t ~size] charges a synchronous sequential write. *)
val write : t -> size:int -> unit

(** [read t ~size] charges a synchronous read. *)
val read : t -> size:int -> unit

(** Total bytes written (for WAF accounting). *)
val bytes_written : t -> int

(** Extra per-IO software cost: syscall for SSD, zero for NVM (§2.1 "the
    storage stack further amplifies access latency"). *)
val io_overhead : t -> Prism_device.Cost.t -> float
