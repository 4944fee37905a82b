(** Opportunistic thread combining for Value Storage reads (§5.3).

    Concurrent readers line up in a Thread Combining Queue. The first
    arrival (atomic swap on the queue tail, MCS-style) becomes the leader;
    it coalesces its own and the followers' read requests — up to the
    coalescing limit (queue depth) — into a single io_uring submission,
    then hands leadership to later arrivals. A follower wakes when the
    leader hands its request to the ring, and again, individually, when
    the background completion path posts its CQE if that comes later.

    The effect: with many concurrent readers, batches are large (high SSD
    bandwidth, low per-IO CPU cost); with few, batches are small (low
    latency). No timeout is ever waited on. *)

type t

val create :
  Prism_device.Io_uring.t ->
  limit:int ->
  cost:Prism_device.Cost.t ->
  t

(** [read_request t r] queues [r], leads the queue if no leader is
    active, and blocks until [r]'s completion action has run (its data
    is available). The miss path's entry point: [r] is the caller's, so
    a caller that keeps its requests reads without allocating. Must be
    called from within a process. *)
val read_request : t -> Prism_device.Io_uring.request -> unit

(** [read_requests t reqs n] coalesces [reqs.(0 .. n - 1)] from one
    thread (scan path) and waits for all. *)
val read_requests : t -> Prism_device.Io_uring.request array -> int -> unit

(** [read t entry] is {!read_request} of a fresh request for [entry]. *)
val read : t -> Prism_device.Io_uring.entry -> unit

(** [read_many t entries] is {!read_requests} of fresh requests for
    [entries]. Only tests call it: [test_core_units] "read_many" and
    "combining schedule pinned". *)
val read_many : t -> Prism_device.Io_uring.entry list -> unit

(** Total batches submitted and total requests, for the Figure 11
    batch-size analysis: requests / batches = mean achieved batch size. *)
val batches : t -> int

val requests : t -> int

(** [register_stats t stats ~prefix] publishes the batch/request counters
    (by reference) under [<prefix>.batches] / [<prefix>.requests]. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
