open Prism_sim
open Prism_device

type scenario = {
  records : int;
  value_size : int;
  threads : int;
  num_ssds : int;
  theta : float;
  ops : int;
  scan_ops : int;
  seed : int64;
}

let default_scenario =
  {
    records = 20_000;
    value_size = 256;
    threads = 8;
    num_ssds = 2;
    theta = 0.99;
    ops = 20_000;
    scan_ops = 2_000;
    seed = 0xC0FFEEL;
  }

let dataset_bytes s = s.records * s.value_size

let kib = 1024

let mib = 1024 * 1024

(* The paper's testbed has six 128 GB Optane DIMMs per socket; interleaved
   access multiplies a single DIMM's bandwidth (latency unchanged). *)
let nvm_array_spec =
  {
    Spec.optane_dcpmm with
    Spec.read_bw = Spec.optane_dcpmm.Spec.read_bw *. 6.0;
    write_bw = Spec.optane_dcpmm.Spec.write_bw *. 6.0;
  }

let prism ?(tweak = Fun.id) ?(name = "Prism") engine s =
  let d = dataset_bytes s in
  let chunk = 64 * kib in
  let pwb_size =
    max (64 * kib) (Prism_sim.Bits.round_up (d * 16 / 100 / s.threads) 16)
  in
  let vs_size =
    max (16 * chunk) (Prism_sim.Bits.round_up (3 * d / s.num_ssds) chunk)
  in
  let hsit_capacity =
    let c = ref 1024 in
    while !c < 2 * s.records do
      c := !c * 2
    done;
    !c
  in
  let cfg =
    {
      Prism_core.Config.default with
      threads = s.threads;
      pwb_size;
      svc_capacity = max (256 * kib) (d * 20 / 100);
      num_value_storages = s.num_ssds;
      vs_size;
      chunk_size = chunk;
      hsit_capacity;
      nvm_size = (s.threads * pwb_size) + (hsit_capacity * 16) + (4 * mib);
      nvm_spec = nvm_array_spec;
      seed = s.seed;
    }
  in
  let cfg = tweak cfg in
  let store = Prism_core.Store.create engine cfg in
  (Kv.of_prism ~name store, store)

(* Same Table 1 proportions, hotness placement: the NVM budget grows by
   the tier carve (Config.hotness), everything else identical — so
   static-vs-hotness comparisons isolate the placement policy. *)
let prism_hotness ?(tweak = Fun.id) engine s =
  prism
    ~tweak:(fun cfg -> tweak (Prism_core.Config.hotness cfg))
    ~name:"Prism-hotness" engine s

let ssd_specs s = List.init s.num_ssds (fun _ -> Spec.samsung_980_pro)

let kvell ?(queue_depth = 64) engine s =
  let d = dataset_bytes s in
  let kv =
    Prism_baselines.Kvell.create engine ~cost:Cost.default
      ~rng:(Rng.create s.seed) ~ssd_specs:(ssd_specs s) ~workers_per_ssd:3
      ~queue_depth
      ~page_cache_bytes:(max (256 * kib) (d * 32 / 100))
  in
  Kv.of_kvell kv

let lsm_scale s =
  let d = dataset_bytes s in
  {
    Prism_baselines.Variants.memtable_bytes = max (64 * kib) (d / 128);
    level_base_bytes = max (512 * kib) (d / 4);
    table_target_bytes = max (64 * kib) (d / 64);
    block_cache_bytes = max (256 * kib) (d * 26 / 100);
    container_bytes = max (128 * kib) (d * 8 / 100);
    column_bytes = 64 * kib;
  }

let rocksdb_nvm engine s =
  (* RocksDB-NVM is the paper's cost-no-object reference point and is not
     in Table 1's equal-cost budget: it runs with RocksDB's default small
     block cache (everything already lives on NVM). *)
  let scale =
    { (lsm_scale s) with
      Prism_baselines.Variants.block_cache_bytes =
        max (256 * kib) (dataset_bytes s * 2 / 100) }
  in
  let tree =
    Prism_baselines.Variants.rocksdb_nvm engine ~cost:Cost.default
      ~rng:(Rng.create s.seed) ~nvm_spec:nvm_array_spec ~scale
  in
  let kv = Kv.of_lsm tree in
  (* The LSM runs entirely on NVM: its level traffic is NVM traffic. *)
  Stats.gauge_int (Engine.stats engine)
    (kv.Kv.stat_prefix ^ ".device.nvm.bytes_written")
    (fun () -> Prism_baselines.Lsm_tree.level_bytes_written tree);
  kv

let matrixkv engine s =
  let tree, raid =
    Prism_baselines.Variants.matrixkv engine ~cost:Cost.default
      ~rng:(Rng.create s.seed) ~nvm_spec:nvm_array_spec
      ~ssd_specs:(ssd_specs s) ~scale:(lsm_scale s)
  in
  let kv = Kv.of_lsm tree in
  Stats.gauge_int (Engine.stats engine)
    (kv.Kv.stat_prefix ^ ".device.ssd.bytes_written")
    (fun () -> Raid.bytes_written raid);
  kv

let slmdb engine s =
  let d = dataset_bytes s in
  let nvm = Model.create engine nvm_array_spec in
  let raid =
    Raid.create
      (List.map (fun spec -> Model.create engine spec) (ssd_specs s))
  in
  let data = Prism_baselines.Target.ssd_raid raid in
  let db =
    Prism_baselines.Slmdb.create engine ~cost:Cost.default
      ~rng:(Rng.create s.seed) ~nvm ~data
      ~memtable_bytes:(max (64 * kib) (d / 64))
      ~page_cache_bytes:(max (512 * kib) (d / 2))
      ~compaction_threshold:12
  in
  Kv.of_slmdb db

let of_name name s =
  match String.lowercase_ascii name with
  | "prism" -> fun e -> fst (prism e s)
  | "prism-hotness" -> fun e -> fst (prism_hotness e s)
  | "kvell" -> fun e -> kvell e s
  | "matrixkv" -> fun e -> matrixkv e s
  | "rocksdb-nvm" | "rocksdb" -> fun e -> rocksdb_nvm e s
  | "slm-db" | "slmdb" -> fun e -> slmdb e s
  | other -> failwith ("unknown store: " ^ other)

(* A simulation allocates briefly-live objects (events, continuations,
   closures) at a high rate; the 256 K-word default minor heap forces a
   minor collection every few thousand operations. A roomier minor arena
   (2 M words = 16 MB on 64-bit) cuts the collection count by ~8x while
   still fitting in L3 — much larger arenas measured slower here because
   the scavenge walks cold memory. The wall-clock effect is
   workload-dependent (minor collections are cheap when survival is near
   zero); the flag mainly stabilises run-to-run variance and is reported
   via the process.gc.* gauges. *)
let gc_tune () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024; space_overhead = 200 }
