(** Synchronization primitives for simulation processes.

    All blocking operations must be called from within a process spawned on
    the engine that the primitive was created for. *)

(** Write-once cell. Readers block until the value is filled. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  (** [fill t v] stores [v] and wakes all readers. Raises [Invalid_argument]
      if already filled. *)
  val fill : 'a t -> 'a -> unit

  val is_filled : 'a t -> bool

  (** [peek t] is the value if filled. *)
  val peek : 'a t -> 'a option

  (** [read t] blocks until the value is available. *)
  val read : 'a t -> 'a

  (** [read_with_timeout t d] blocks at most [d] virtual seconds; [None] on
      timeout. A timed-out read removes its waiter from the ivar's queue,
      so long-lived ivars polled with timeouts don't accumulate dead
      closures. *)
  val read_with_timeout : 'a t -> float -> 'a option

  (** Number of blocked readers currently queued (0 once filled); exposed
      for leak diagnostics and tests. *)
  val waiters : 'a t -> int
end

(** Unbounded FIFO mailbox (any number of senders and receivers). *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t

  (** [send t v] enqueues [v]; never blocks. *)
  val send : 'a t -> 'a -> unit

  (** [recv t] dequeues the oldest message, blocking while empty. *)
  val recv : 'a t -> 'a

  (** [try_recv t] dequeues without blocking. *)
  val try_recv : 'a t -> 'a option

  val length : 'a t -> int

  val is_empty : 'a t -> bool
end

(** Counting semaphore with FIFO wakeup order. *)
module Semaphore : sig
  type t

  (** [create n] makes a semaphore holding [n] permits. *)
  val create : int -> t

  (** [acquire t] takes a permit, blocking while none are available. *)
  val acquire : t -> unit

  (** [try_acquire t] takes a permit only if one is immediately available.
      Only [test_sim] "try acquire" calls it. *)
  val try_acquire : t -> bool

  (** [release t] returns a permit, waking the longest-blocked acquirer. *)
  val release : t -> unit
end

(** Mutual exclusion built on {!Semaphore}. *)
module Mutex : sig
  type t

  val create : unit -> t

  (** [with_lock t f] runs [f] while holding the lock, releasing it on both
      normal and exceptional return. *)
  val with_lock : t -> (unit -> 'a) -> 'a
end

(** Countdown latch: blocks waiters until [count] arrivals have happened. *)
module Latch : sig
  type t

  val create : int -> t

  (** [arrive t] records one arrival. *)
  val arrive : t -> unit

  (** [wait t] blocks until the count reaches zero. *)
  val wait : t -> unit
end
