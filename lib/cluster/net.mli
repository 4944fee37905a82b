(** Simulated cluster network medium.

    A full mesh of directed links between [nodes] endpoints, modelled the
    same way as the storage devices in [Prism_device]: each link is a
    serial pipe — a message occupies it for [size/bandwidth] seconds, then
    propagates for [latency] more — so concurrent senders on one link
    queue behind each other, and a fat message delays everything after
    it. Loss is decided per message by a per-link SplitMix64 stream, so
    whether the k-th message on a link is dropped depends only on the
    link's seed and k — never on global scheduling.

    Determinism: delivery times are a pure function of send times, sizes
    and the link configuration, and are kept strictly monotone per link,
    so per-link FIFO delivery order survives {e any} engine tie-break
    policy (the checker explores schedules with seeded and guided
    tie-breaking). Telemetry registers device-model-style under
    ["net.*"] (see {!register_stats}). *)

type t

(** Per-link knobs: one-way propagation [latency] (seconds), serial
    [bandwidth] (bytes/second; [<= 0.] means infinite) and [loss]
    probability in [0, 1]. *)
type link_cfg = { latency : float; bandwidth : float; loss : float }

(** 5 us one-way, 10 Gb/s, lossless — a datacenter ToR link. *)
val default_link : link_cfg

(** [create engine ~nodes ~seed ()] builds a full mesh of [nodes]
    endpoints with [link] (default {!default_link}) on every directed
    pair. [seed] derives each link's private loss stream. *)
val create :
  Prism_sim.Engine.t -> nodes:int -> ?link:link_cfg -> seed:int64 -> unit -> t

(** [send t ~src ~dst ~size f] transmits a [size]-byte message and
    schedules [f] at its delivery time (unless the link drops it). [f]
    runs in a plain callback context and must not delay or suspend —
    resume a suspended process or spawn one inside it for blocking
    work. Never blocks the sender; charges no sender time (NIC
    offload). *)
val send : t -> src:int -> dst:int -> size:int -> (unit -> unit) -> unit

(** Messages sent / payload bytes / messages dropped so far. *)
val msgs : t -> int

val bytes : t -> int

val dropped : t -> int

(** [register_stats t stats ~prefix] publishes [<prefix>.msgs],
    [.bytes], [.dropped], [.delivered] counters and a [.nodes] gauge. *)
val register_stats : t -> Prism_sim.Stats.t -> prefix:string -> unit
