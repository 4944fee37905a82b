(** Equal-cost experiment setups (the paper's Table 1).

    The paper sizes each system's DRAM/NVM so total hardware cost matches:
    Prism gets a 20 GB DRAM cache + 16 GB NVM buffer, KVell a 32 GB DRAM
    cache, MatrixKV a 26 GB cache + 8 GB NVM — against a 100 GB dataset.
    We preserve those *proportions* against the scaled dataset size:
    SVC = 20 %, PWB = 16 %, KVell cache = 32 %, MatrixKV cache = 26 % +
    8 % NVM container. *)

type scenario = {
  records : int;
  value_size : int;
  threads : int;
  num_ssds : int;
  theta : float;
  ops : int;
  scan_ops : int;  (** workload E runs fewer ops (paper: 20 M vs 100 M) *)
  seed : int64;
}

(** Test-sized default: 20 k records of 256 B, 8 threads, 2 SSDs,
    Zipf 0.99. *)
val default_scenario : scenario

(** Dataset bytes of a scenario. *)
val dataset_bytes : scenario -> int

(** Six interleaved Optane DIMMs (the paper's per-socket population):
    Figure 1 latency, 6x a single DIMM's bandwidth. *)
val nvm_array_spec : Prism_device.Spec.t

(** [prism engine s] builds a Prism store with Table 1 proportions;
    [tweak] post-processes the config (ablations, sweeps). Also returns
    the underlying store for component-level statistics. *)
val prism :
  ?tweak:(Prism_core.Config.t -> Prism_core.Config.t) ->
  Prism_sim.Engine.t ->
  scenario ->
  Kv.t * Prism_core.Store.t

val kvell :
  ?queue_depth:int -> Prism_sim.Engine.t -> scenario -> Kv.t

val rocksdb_nvm : Prism_sim.Engine.t -> scenario -> Kv.t

val matrixkv : Prism_sim.Engine.t -> scenario -> Kv.t

(** SLM-DB is single-threaded and was evaluated on a reduced dataset
    (§7.4); the caller passes a suitably reduced scenario. *)
val slmdb : Prism_sim.Engine.t -> scenario -> Kv.t

(** The stores a command line can name: ["prism"], ["kvell"],
    ["matrixkv"], ["rocksdb-nvm"], ["slm-db"]. *)
val store_names : string list

(** [of_name name s] is the maker of the store [name] names, one of
    {!store_names} ignoring case. Display the made store by its
    [Kv.name]. Command lines parse the name with [Prism_cli.Cli.store_name],
    so only a misspelt literal reaches the [Not_found]. *)
val of_name : string -> scenario -> Prism_sim.Engine.t -> Kv.t

(** Tune the host GC for simulation workloads: a 64 MB minor heap (so the
    short-lived event/continuation garbage dies young) and a relaxed major
    space overhead. Purely a wall-clock optimisation — virtual-time results
    are unaffected. Exposed behind the [--gc-tune] flag of the bench
    executables. *)
val gc_tune : unit -> unit
