(** io_uring-style asynchronous IO engine over one device.

    Mirrors the kernel interface the paper uses (§5.3): a submission queue
    (SQ) and completion queue (CQ) pair per Value Storage. Submitting a
    batch charges the calling thread the syscall cost plus a per-SQE cost —
    this amortization is exactly why larger batches lower CPU overhead. A
    bounded queue depth models the ring size: submissions block while the
    ring is full.

    Each entry carries an [action] callback executed at completion time —
    the data movement (DMA) happens there, so the payload bytes only become
    visible when the IO really completes. *)

type t

type entry = {
  dir : Model.direction;
  size : int;
  action : unit -> unit;  (** run at completion, before waiters wake *)
}

(** [create engine model ~queue_depth ~cost] builds an SQ/CQ pair. *)
val create :
  Prism_sim.Engine.t -> Model.t -> queue_depth:int -> cost:Cost.t -> t

(** [submit t entries] pushes a batch; returns one ivar per entry, filled
    with the entry's completion time. Blocks (in virtual time) while the
    ring lacks room, and charges the submitting thread the amortized
    syscall cost. Must be called from within a process. *)
val submit : t -> entry list -> float Prism_sim.Sync.Ivar.t list

(** [submit_and_wait t entries] submits and blocks until every entry has
    completed; returns the last completion time. *)
val submit_and_wait : t -> entry list -> float

(** Number of entries currently in flight. *)
val in_flight : t -> int

(** True when no request is in flight — the idleness test Prism uses to
    pick a Value Storage for reclamation writes (§5.2). *)
val is_idle : t -> bool

(** [register_stats t stats ~prefix] publishes [<prefix>.submits],
    [<prefix>.sqes] (counters) and [<prefix>.in_flight] (gauge). *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
