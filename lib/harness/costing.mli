(** Hardware cost accounting (the paper's Table 1).

    The paper equalizes the memory-hierarchy budget of every system in
    dollars: Prism gets a 20 GB DRAM cache + 16 GB NVM buffer, KVell a
    32 GB DRAM cache, MatrixKV a 26 GB DRAM cache + 8 GB NVM — all ~$170
    against their 100 GB dataset. This module computes the same bill of
    materials for a scaled scenario, using Figure 1's $/TB numbers. *)

type bill = {
  system : string;
  dram_bytes : int;
  nvm_bytes : int;
  dram_cost : float;
  nvm_cost : float;
  total_cost : float;
}

(** [prism s] — SVC (DRAM) plus PWBs (NVM); the Key Index + HSIT NVM
    footprint is excluded, matching the paper's Table 1 which prices only
    the cache/buffer budget. *)
val prism : Setup.scenario -> bill

val kvell : Setup.scenario -> bill

val all : Setup.scenario -> bill list

(** True when every bill is within [tolerance] (fraction) of the first —
    the Table 1 equal-cost property. *)
val balanced : ?tolerance:float -> bill list -> bool
