(** io_uring-style asynchronous IO engine over one device.

    Mirrors the kernel interface the paper uses (§5.3): a submission queue
    (SQ) and completion queue (CQ) pair per Value Storage. Submitting a
    batch charges the calling thread the syscall cost plus a per-SQE cost —
    this amortization is exactly why larger batches lower CPU overhead. A
    bounded queue depth models the ring size: submissions block while the
    ring is full.

    Every IO is a {!request}: its extent, the action its completion runs
    (the data movement, so the payload bytes only become visible when the
    IO really completes) and one waiter slot. A request can be rearmed and
    submitted again once its waiter has returned, so a hot path can keep
    its requests and submit without allocating. *)

type t

(** One IO as a plain description, for callers that submit a list. *)
type entry = {
  dir : Model.direction;
  size : int;
  action : unit -> unit;  (** run at completion, before waiters wake *)
}

type request

(** [create engine model ~queue_depth ~cost] builds an SQ/CQ pair. *)
val create :
  Prism_sim.Engine.t -> Model.t -> queue_depth:int -> cost:Cost.t -> t

(** [request t ~dir ~size action] is a fresh request on [t]'s ring;
    [action] runs at each of its completions. *)
val request : t -> dir:Model.direction -> size:int -> (unit -> unit) -> request

(** [of_entry t e] is [e] as a fresh request on [t]'s ring. *)
val of_entry : t -> entry -> request

(** [rearm r ~size] makes a completed (or never submitted) request ready
    to be submitted again, for [size] bytes. *)
val rearm : request -> size:int -> unit

val size : request -> int

(** [submit_batch t reqs n] submits [reqs.(0 .. n - 1)] in one call:
    charges the calling thread the amortized syscall cost, then reserves
    a ring slot per request, blocking (in virtual time) while the ring
    is full. The only submission path; everything else wraps it. Must be
    called from within a process. *)
val submit_batch : t -> request array -> int -> unit

(** [await r] blocks until [r]'s completion action has run. *)
val await : request -> unit

(** [hand_off r] is a combining queue's hand-off: the combiner has
    submitted [r] on its owner's behalf. *)
val hand_off : request -> unit

(** [await_combined r] is how the owner of a request a combiner submits
    waits: until the hand-off, then until completion. It wakes at the
    hand-off even when the IO has already completed, and parks again
    only if it has not. Both waits share the request's one waiter
    slot. *)
val await_combined : request -> unit

(** [submit t entries] submits the entries as one batch and returns their
    requests, in order. *)
val submit : t -> entry list -> request list

(** [submit_and_wait t entries] submits and blocks until every entry has
    completed, reaping each completion in order. *)
val submit_and_wait : t -> entry list -> unit

(** Number of entries currently in flight. *)
val in_flight : t -> int

(** True when no request is in flight — the idleness test Prism uses to
    pick a Value Storage for reclamation writes (§5.2). *)
val is_idle : t -> bool

(** [register_stats t stats ~prefix] publishes [<prefix>.submits],
    [<prefix>.sqes] (counters) and [<prefix>.in_flight] (gauge). *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
