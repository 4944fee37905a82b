(** Growable FIFO ring buffer. Unlike [Stdlib.Queue], pushing and popping
    allocate nothing once the ring has grown to its working size, which
    is what the simulator's per-request queues need. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t v] appends [v] at the back. *)
val push : 'a t -> 'a -> unit

(** [peek t] is the front element. @raise Invalid_argument when empty. *)
val peek : 'a t -> 'a

(** [pop t] removes and returns the front element.
    @raise Invalid_argument when empty. *)
val pop : 'a t -> 'a

(** [clear t] drops every element. *)
val clear : 'a t -> unit
