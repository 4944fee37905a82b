(** Log-bucketed latency histogram (HdrHistogram-style).

    Values are non-negative integers — by convention nanoseconds of virtual
    time. Buckets below 256 are exact; above that each power-of-two range
    is split into 128 linear sub-buckets, bounding relative quantile error
    to about 0.8 % — fine enough that tail quantiles (p999, p9999) are not
    bucket-quantization artifacts. *)

type t

val create : unit -> t

(** [record t v] adds one observation. Negative values are clamped to 0. *)
val record : t -> int -> unit

(** [record_span t span] records a virtual-time duration in seconds,
    converted to nanoseconds. *)
val record_span : t -> float -> unit

val count : t -> int

(** Mean of recorded values; 0 when empty. *)
val mean : t -> float

(** Smallest recorded value; 0 when empty. Only tests call it: [test_sim]
    "exact small", "merge" and the percentile and quantile bound
    properties. *)
val min_value : t -> int

val max_value : t -> int

(** [percentile t p] for [p] in [\[0, 100\]]: smallest bucket lower bound
    such that at least [p] percent of observations fall at or below it.
    Returns 0 when empty. *)
val percentile : t -> float -> int

(** [quantile t p] for [p] in [\[0, 100\]]: like {!percentile}, but
    interpolates linearly inside the bucket holding the target rank (and
    between the bucket's bounds), so adjacent quantiles vary smoothly
    instead of snapping to bucket lower bounds. Clamped to
    [\[min_value, max_value\]]; 0 when empty. *)
val quantile : t -> float -> float

(** Median shorthand: [percentile t 50.0]. *)
val median : t -> int

(** [merge ~into src] adds all of [src]'s observations into [into]. *)
val merge : into:t -> t -> unit

(** [reset t] discards every observation, returning [t] to its freshly
    created state. *)
val reset : t -> unit

(** [to_us v] converts a nanosecond measurement to microseconds. *)
val to_us : int -> float

(** [us_of_ns ns] converts a fractional nanosecond measurement (e.g. an
    interpolated quantile) to microseconds. *)
val us_of_ns : float -> float
