open Prism_device

type scale = {
  memtable_bytes : int;
  level_base_bytes : int;
  table_target_bytes : int;
  block_cache_bytes : int;
  container_bytes : int;
  column_bytes : int;
}

let lsm_config ~name ~scale ~l0_mode =
  {
    Lsm_tree.name;
    memtable_bytes = scale.memtable_bytes;
    l0_mode;
    l0_compaction_trigger = 4;
    l0_slowdown = 8;
    l0_stall = 12;
    level_base_bytes = scale.level_base_bytes;
    level_multiplier = 10;
    table_target_bytes = scale.table_target_bytes;
    block_cache_bytes = scale.block_cache_bytes;
    wal_enabled = true;
  }

let rocksdb_nvm engine ~cost ~rng ~nvm_spec ~scale =
  let nvm = Model.create engine nvm_spec in
  let target = Target.nvm_dev nvm in
  Lsm_tree.create engine
    (lsm_config ~name:"RocksDB-NVM" ~scale ~l0_mode:Lsm_tree.Tables)
    ~cost ~rng ~wal:target ~l0:target ~levels:target

let matrixkv engine ~cost ~rng ~nvm_spec ~ssd_specs ~scale =
  let nvm = Model.create engine nvm_spec in
  let raid =
    Raid.create (List.map (fun spec -> Model.create engine spec) ssd_specs)
  in
  let nvm_target = Target.nvm_raw nvm in
  let ssd_target = Target.ssd_raid raid in
  let tree =
    Lsm_tree.create engine
      (lsm_config ~name:"MatrixKV" ~scale
         ~l0_mode:
           (Lsm_tree.Container
              {
                capacity = scale.container_bytes;
                column = scale.column_bytes;
              }))
      ~cost ~rng ~wal:nvm_target ~l0:nvm_target ~levels:ssd_target
  in
  (tree, raid)
