(** Zipfian item generator, following the YCSB implementation (Gray et
    al.'s rejection-free method): item ranks are drawn with probability
    proportional to [1 / rank^theta].

    The scrambled variant hashes the rank so that popular items are spread
    uniformly over the key space — exactly what YCSB does, and what makes
    hash-partitioned stores (KVell) suffer load imbalance only from item
    popularity, not key adjacency. *)

type t

(** [create ~items ~theta rng]. [theta] is the Zipfian constant (YCSB
    default 0.99); [theta = 0] degenerates to uniform; [theta >= 1] draws
    from a Vose alias table in O(1) (the paper sweeps up to 1.5). Every
    path consumes exactly one RNG draw per rank. *)
val create : items:int -> theta:float -> Prism_sim.Rng.t -> t

(** Draw the next rank in [\[0, items)]; rank 0 is the most popular. *)
val next_rank : t -> int

(** Draw a scrambled item: [hash(rank) mod items]. *)
val next_scrambled : t -> int

(** [grow t ~items] extends the domain (used by the "latest" distribution
    as records are inserted). Cheap amortized re-computation of zeta. *)
val grow : t -> items:int -> unit

(** The current domain size. Only tests read it: [test_workload]
    "zipfian grow". *)
val items : t -> int
