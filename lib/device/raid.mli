(** RAID-0 striping across several devices (the paper's competitors run on
    NVM/SSD aggregated with mdadm/dm-stripe, §7.1).

    A request at byte offset [off] is split at stripe-unit boundaries and
    the pieces are issued to the owning devices; the request completes when
    the slowest piece does. *)

type t

(** [create ?stripe_unit devices] — default stripe unit is 512 KiB, the
    mdadm default. *)
val create : ?stripe_unit:int -> Model.t list -> t

(** [access t dir ~off ~size] blocks the calling process until the striped
    request completes. *)
val access : t -> Model.direction -> off:int -> size:int -> unit

(** Aggregate bytes written across all member devices. *)
val bytes_written : t -> int

val bytes_read : t -> int
