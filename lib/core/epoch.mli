(** Epoch-based reclamation (§5.4).

    Threads pin the global epoch for the duration of each operation.
    Retired objects are freed only after two epoch advances, guaranteeing
    that no thread which could have observed the object is still running
    (first epoch: no new accessors; second: old accessors finished). *)

type t

val create : threads:int -> t

(** [pin t ~tid] marks thread [tid] as inside a critical section at the
    current global epoch. The store pins and unpins around each
    operation itself, unpinning on exceptions too. *)
val pin : t -> tid:int -> unit

(** [unpin t ~tid] leaves the critical section and opportunistically tries
    to advance the epoch and run ripe reclamations. Allocates nothing of
    its own. *)
val unpin : t -> tid:int -> unit

(** [with_pinned t ~tid f] brackets [f] with pin/unpin. *)
val with_pinned : t -> tid:int -> (unit -> 'a) -> 'a

(** [retire t free arg] schedules [free arg] to run two epochs from now.
    Callers pass a function built once and the object's index, so
    retiring allocates nothing. *)
val retire : t -> (int -> unit) -> int -> unit

(** Objects retired but not yet freed (for tests). *)
val pending : t -> int

(** [reset t] discards all retired callbacks without running them and
    unpins every thread — crash simulation only: retirements belong to the
    pre-crash world and must not touch recovered state. *)
val reset : t -> unit

(** Force epoch advancement attempts until nothing more can be freed —
    used at quiescence points (shutdown, recovery). Only safe when no
    thread is pinned. *)
val drain : t -> unit
