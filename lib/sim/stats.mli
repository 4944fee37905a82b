(** Hierarchical named-metric registry.

    One registry lives on each {!Engine.t}; subsystems register metrics
    under stable dotted names ([prism.svc.hits],
    [kvell.device.ssd.bytes_written], ...) instead of exporting private
    fields. Harness code then reads everything through one interface —
    snapshot, diff across a phase, reset between phases, JSON export.

    Determinism invariant: registering or reading a metric never
    schedules events, delays, or otherwise touches the engine's event
    queue, so telemetry cannot perturb a simulation's schedule. *)

type t

(** Snapshot value of one metric. *)
type value =
  | Int of int
  | Float of float
  | Dist of { count : int; mean : float; p50 : int; p99 : int; max : int }
      (** Histogram digest; units are whatever the histogram recorded
          (by convention nanoseconds of virtual time). *)

type metric =
  | Counter of Metric.Counter.t
  | Gauge of (unit -> value)
  | Histogram of Hist.t
  | Timeline of Metric.Timeline.t

val create : unit -> t

(** [sanitize name] maps a store display name to a stable metric-name
    segment: lowercased, runs of non-alphanumerics collapsed to ['-']
    ("RocksDB-NVM" -> ["rocksdb-nvm"]). *)
val sanitize : string -> string

(** [counter t name] returns the counter registered under [name],
    creating it on first use. Callers asking for the same name share one
    counter — deliberate: per-instance subsystems (e.g. one TCQ per
    value-storage shard) aggregate into a single metric.
    @raise Invalid_argument if [name] is bound to a non-counter. *)
val counter : t -> string -> Metric.Counter.t

(** [register_counter t name c] adopts an existing counter so hot paths
    keep incrementing the field they already own. Last registration of a
    name wins. *)
val register_counter : t -> string -> Metric.Counter.t -> unit

val gauge_int : t -> string -> (unit -> int) -> unit

val gauge_float : t -> string -> (unit -> float) -> unit

(** [register_gc t] registers host-process GC gauges under
    ["process.gc.minor_words"], ["process.gc.minor_collections"],
    ["process.gc.major_collections"] and ["process.gc.heap_words"], so
    JSON exports record the run's real allocation behaviour alongside the
    virtual-time metrics. Reads [Gc.quick_stat] at snapshot time only.
    The first three add whatever {!note_foreign_gc} has collected from
    fleet worker processes; [heap_words] is this process's heap alone. *)
val register_gc : t -> unit

(** [note_foreign_gc ~minor_words ~minor_collections ~major_collections]
    adds a fleet job's GC deltas, measured in the worker process that ran
    it, to the accumulators behind {!register_gc}'s gauges. Negative
    deltas count as zero. *)
val note_foreign_gc :
  minor_words:int -> minor_collections:int -> major_collections:int -> unit

(** [histogram t name] get-or-creates a histogram (see {!counter} for
    sharing semantics).
    @raise Invalid_argument if [name] is bound to a non-histogram. *)
val histogram : t -> string -> Hist.t

val register_histogram : t -> string -> Hist.t -> unit

(** [timeline t name ~interval] get-or-creates a timeline. The interval
    of an existing timeline is kept (the argument is ignored). *)
val timeline : t -> string -> interval:float -> Metric.Timeline.t

val find : t -> string -> metric option

(** [snapshot t] samples every metric: counters and timelines as [Int],
    gauges as whatever they return, histograms as [Dist]. Sorted by
    name. *)
val snapshot : t -> (string * value) list

(** [get_int t name] samples one metric as an integer (floats truncate,
    histograms yield their count); 0 when [name] is unregistered. *)
val get_int : t -> string -> int

(** [diff ~before ~after] subtracts numeric values per name; [Dist]
    entries subtract counts but keep [after]'s digest (percentiles are
    cumulative). Names missing from [before] pass through unchanged. *)
val diff :
  before:(string * value) list ->
  after:(string * value) list ->
  (string * value) list

(** [reset t] zeroes counters and empties histograms and timelines.
    Gauges are live views and are untouched. *)
val reset : t -> unit

(** One-line-per-metric JSON object: counters/gauges as numbers,
    histograms as [{"count":..,"mean":..,"p50":..,"p99":..,"max":..}],
    timelines as [[[start,count],...]]. Keys sorted. *)
val to_json : t -> string

val pp : Format.formatter -> t -> unit
