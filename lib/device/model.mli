(** Timing model of a single storage device.

    The device is a pipeline: requests serialize through a transfer stage at
    the direction's bandwidth, then complete after the direction's access
    latency. Under load, requests queue in the transfer stage, which is what
    produces the bandwidth ceiling and the queueing-driven tail latency the
    paper's Figures 11 and 14 rely on.

    The model also keeps endurance accounting (bytes read/written) used for
    the write-amplification experiment (Figure 12). *)

type direction = Read | Write

type t

(** [create engine spec] attaches a device to a simulation. *)
val create : Prism_sim.Engine.t -> Spec.t -> t

(** [submit t dir ~size] books a transfer of [size] bytes and returns the
    virtual completion time. Does not block the caller. *)
val submit : t -> direction -> size:int -> float

(** [submit_then t dir ~size k] is [submit] followed by scheduling [k]
    at the completion time, right behind the model's own completion
    bookkeeping (see {!Prism_sim.Engine.schedule_behind_until}); [k]
    reads the completion time as the engine's [now]. Neither time is
    boxed on the way. Does not block the caller. *)
val submit_then : t -> direction -> size:int -> (unit -> unit) -> unit

(** [access t dir ~size] performs a synchronous byte-addressable access:
    blocks the calling process for the device latency plus transfer time.
    Used for NVM and DRAM. Must be called from within a process. *)
val access : t -> direction -> size:int -> unit

(** Total bytes written to the device since creation (or last reset). *)
val bytes_written : t -> int

val bytes_read : t -> int

val reads : t -> int

val writes : t -> int

(** Forget accumulated statistics (not the pipeline state). *)
val reset_stats : t -> unit

(** Current number of requests submitted but not yet completed. *)
val in_flight : t -> int

(** [register_stats t stats ~prefix] publishes the device's accounting as
    gauges ([<prefix>.bytes_read], [.bytes_written], [.reads], [.writes],
    [.in_flight]) in the given registry. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
