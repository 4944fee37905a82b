(** Pre-wired competitor configurations matching the paper's §7.1 setups,
    scaled by a single [scale] record so tests and benches can shrink the
    dataset while preserving the proportions of the original systems. *)

type scale = {
  memtable_bytes : int;  (** RocksDB default 64 MiB, scaled *)
  level_base_bytes : int;  (** L1 target *)
  table_target_bytes : int;
  block_cache_bytes : int;  (** the DRAM budget from Table 1 *)
  container_bytes : int;  (** MatrixKV NVM L0 (8 GiB in the paper) *)
  column_bytes : int;  (** MatrixKV column compaction unit *)
}

(** RocksDB with all SSTables and WAL on NVM (§7.1). *)
val rocksdb_nvm :
  Prism_sim.Engine.t ->
  cost:Prism_device.Cost.t ->
  rng:Prism_sim.Rng.t ->
  nvm_spec:Prism_device.Spec.t ->
  scale:scale ->
  Lsm_tree.t

(** MatrixKV: NVM matrix-container L0 with column compaction, levels on a
    flash RAID (§7.1). Returns the tree and the RAID used, for WAF
    accounting. *)
val matrixkv :
  Prism_sim.Engine.t ->
  cost:Prism_device.Cost.t ->
  rng:Prism_sim.Rng.t ->
  nvm_spec:Prism_device.Spec.t ->
  ssd_specs:Prism_device.Spec.t list ->
  scale:scale ->
  Lsm_tree.t * Prism_device.Raid.t
