(** Deterministic 64-bit string hashing (FNV-1a with an avalanche
    finalizer). Used for KVell's key-space partitioning, bloom filters, and
    YCSB's scrambled-Zipfian key scrambling. *)

(** [fnv1a s] is the 64-bit FNV-1a hash of [s]. *)
val fnv1a : string -> int64

(** [fnv1a_int v] hashes an integer's 8-byte little-endian encoding. Only
    [test_index] "int hashing" calls it. *)
val fnv1a_int : int -> int64

(** [mix h] applies a SplitMix64-style finalizer for better avalanche. *)
val mix : int64 -> int64

(** [to_bucket h n] maps a hash onto [\[0, n)]. *)
val to_bucket : int64 -> int -> int

(** [bucket s n] is [to_bucket (fnv1a s) n], computed without boxing the
    hash: it allocates nothing. *)
val bucket : string -> int -> int
