(** Deterministic SplitMix64 pseudo-random number generator.

    Every stochastic component of the simulation draws from its own [Rng.t]
    stream so that experiments are reproducible bit-for-bit regardless of
    scheduling order. *)

type t

(** [create seed] makes a generator from a 64-bit seed. *)
val create : int64 -> t

(** [split t] derives an independent child stream; the parent advances. *)
val split : t -> t

(** Next raw 64-bit output. Only [test_sim] "deterministic" and "split
    independent" call it directly. *)
val next_int64 : t -> int64

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [exponential t ~mean] draws from an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
