(** Timeout-based asynchronous IO batching — the "TA" baseline of Figure
    11. A dispatcher process accumulates read requests and submits a batch
    when either the batch reaches the queue-depth limit or a fixed timeout
    (the paper uses 100 us) has elapsed since the first pending request.
    Same interface as {!Tcq} so the store can switch between them. *)

type t

(** [timeout] defaults to the paper's 100 us. *)
val create :
  ?timeout:float ->
  Prism_sim.Engine.t ->
  Prism_device.Io_uring.t ->
  limit:int ->
  cost:Prism_device.Cost.t ->
  t

(** Spawn the dispatcher process. *)
val start : t -> unit

(** [read_request t r] blocks until [r]'s data is available. *)
val read_request : t -> Prism_device.Io_uring.request -> unit

(** [read_requests t reqs n] queues [reqs.(0 .. n - 1)] together and
    waits for all. *)
val read_requests : t -> Prism_device.Io_uring.request array -> int -> unit

(** [read t entry] is {!read_request} of a fresh request for [entry]. *)
val read : t -> Prism_device.Io_uring.entry -> unit

val batches : t -> int

val requests : t -> int

(** [register_stats t stats ~prefix] publishes the batch/request counters
    (by reference) under [<prefix>.batches] / [<prefix>.requests]. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
