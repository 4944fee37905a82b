(* The benchmark's contract in one table: workloads, end-to-end metrics
   with their regression bounds, and per-layer metrics with the
   end-to-end metric and workload each should move. BENCHMARK.json,
   compare.exe and the table test all read it from here. *)

type better = Higher | Lower

let better_name = function Higher -> "higher" | Lower -> "lower"

type workload = { w_name : string; why : string }

let workloads =
  [
    {
      w_name = "ycsb-c-hot";
      why =
        "100% Zipf-0.99 gets on 50k keys: the hot set fits the SVC, so \
         lookups stay in DRAM and the write path sits idle";
    };
    {
      w_name = "ycsb-c-uniform";
      why =
        "100% uniform gets on 50k keys, 5x the SVC: reads go through TCQ, \
         io_uring and the SSD model";
    };
    {
      w_name = "ycsb-a-zipf";
      why =
        "50/50 get/update at Zipf 0.99 on 50k keys: PWB appends, reclaim dedup, VS \
         writes and GC, then crash and recovery";
    };
    {
      w_name = "ycsb-e-scan";
      why =
        "95% scans of 1-100 keys, 5% inserts on 50k keys: index range scans, \
         SVC scan chains and sort-on-evict reorganization";
    };
    {
      w_name = "cluster-txn";
      why =
        "4 shards, 32k keys, YCSB-A with every 8th update a 4-key 2PC batch: \
         the only workload that drives Net and two-phase commit";
    };
    {
      w_name = "dpor-check";
      why =
        "DPOR walk of the checker's default shape: host cost and memory of \
         the linearizability checker";
    };
  ]

type e2e = {
  e_name : string;
  e_unit : string;
  e_better : better;
  bound : float;  (** share of the parent's median it may worsen by *)
}

(* Host metrics use process CPU time, which in a single-domain run is the
   busy wall time minus what the shared host gives other tenants; other
   tenants still slow it by up to a third for minutes at a time, so the
   host-time bounds are the widest allowed. Virtual metrics are
   deterministic for a seed; their bounds are at least three times their
   spread across seeds where that fits, dpor-check's small store being
   the most seed-sensitive. *)
let end_to_end =
  [
    { e_name = "host_kops"; e_unit = "kop/s"; e_better = Higher; bound = 0.25 };
    { e_name = "minor_words_per_op"; e_unit = "words"; e_better = Lower; bound = 0.04 };
    { e_name = "peak_rss_mb"; e_unit = "MB"; e_better = Lower; bound = 0.24 };
    { e_name = "setup_s"; e_unit = "s"; e_better = Lower; bound = 0.25 };
    { e_name = "vkops"; e_unit = "kop/s"; e_better = Higher; bound = 0.16 };
    { e_name = "lat_mean_us"; e_unit = "us"; e_better = Lower; bound = 0.15 };
    { e_name = "lat_tail99_us"; e_unit = "us"; e_better = Lower; bound = 0.2 };
    { e_name = "waf"; e_unit = "ratio"; e_better = Lower; bound = 0.24 };
    { e_name = "recover_ms"; e_unit = "ms"; e_better = Lower; bound = 0.01 };
  ]

type layer_metric = {
  l_name : string;
  l_unit : string;
  l_better : better;
  layer : string;
  moves : string;  (** the end-to-end metric it should move, and where *)
}

let lm layer l_name l_unit l_better moves =
  { l_name; l_unit; l_better; layer; moves }

let per_layer =
  [
    lm "sim" "engine.events_per_op" "count" Lower "host_kops, all store workloads";
    lm "sim" "engine.ns_per_event" "ns" Lower "host_kops on ycsb-c-uniform";
    lm "sim" "gc.minor_collections_per_kop" "count" Lower "host_kops, peak_rss_mb";
    lm "sim" "gc.major_collections" "count" Lower "host_kops, peak_rss_mb";
    lm "sim" "driver.ns_per_op" "ns" Lower "the benchmark's own floor under host_kops";
    lm "sim" "driver.words_per_op" "words" Lower
      "the benchmark's own floor under minor_words_per_op";
    lm "index" "index.find.ns_per_call" "ns" Lower "host_kops on ycsb-c-hot";
    lm "index" "index.scan.ns_per_call" "ns" Lower "host_kops on ycsb-e-scan";
    lm "core.hsit" "hsit.read.ns_per_call" "ns" Lower "host_kops on ycsb-c-hot";
    lm "core.hsit" "hsit.update.ns_per_call" "ns" Lower "host_kops on ycsb-a-zipf";
    lm "core.svc" "svc.hit_ratio" "ratio" Higher
      "lat_mean_us and vkops on ycsb-c-hot (vs ycsb-c-uniform)";
    lm "core.svc" "svc.evictions_per_kop" "count" Lower "lat_tail99_us on ycsb-c-uniform";
    lm "core.svc" "svc.reorgs_per_kop" "count" Lower "lat_tail99_us on ycsb-e-scan";
    lm "core.svc" "svc.lookup.ns_per_call" "ns" Lower "host_kops on ycsb-c-hot";
    lm "core.svc" "svc.admit.ns_per_call" "ns" Lower "host_kops on ycsb-c-hot";
    lm "core.pwb" "pwb.hit_ratio" "ratio" Higher "lat_mean_us on ycsb-a-zipf";
    lm "core.pwb" "pwb.max_util_mean" "ratio" Lower "lat_tail99_us on ycsb-a-zipf";
    lm "core.pwb" "pwb.append.ns_per_call" "ns" Lower "host_kops on ycsb-a-zipf";
    lm "core.reclaimer" "reclaim.dead_ratio" "ratio" Higher "waf on ycsb-a-zipf";
    lm "core.reclaimer" "reclaim.busy_frac" "ratio" Lower "lat_tail99_us on ycsb-a-zipf";
    lm "core.tcq" "tcq.mean_batch" "count" Higher "lat_tail99_us on ycsb-c-uniform";
    lm "core.tcq" "tcq.read.ns_per_call" "ns" Lower "host_kops on ycsb-c-uniform";
    lm "core.value_storage" "vs.reads_per_get" "count" Lower "lat_tail99_us on ycsb-c-uniform";
    lm "core.value_storage" "vs.gc_runs_per_kop" "count" Lower "waf on ycsb-a-zipf";
    lm "core.value_storage" "vs.gc_busy_frac" "ratio" Lower "lat_tail99_us on ycsb-a-zipf";
    lm "core.value_storage" "vs.min_free_chunks" "count" Higher "lat_tail99_us on ycsb-a-zipf";
    lm "device" "ssd.read_bytes_per_op" "B" Lower
      "lat_tail99_us on ycsb-c-uniform and ycsb-e-scan";
    lm "device" "ssd.write_bytes_per_update" "B" Lower "waf on ycsb-a-zipf";
    lm "device" "uring.sqes_per_submit" "count" Higher "lat_tail99_us on ycsb-c-uniform";
    lm "device" "ssd.busy_frac" "ratio" Lower "lat_tail99_us on ycsb-c-uniform";
    lm "device" "ssd.mean_in_flight" "count" Lower "lat_tail99_us on ycsb-c-uniform";
    lm "media.nvm" "nvm.persists_per_update" "count" Lower "lat_tail99_us on ycsb-a-zipf";
    lm "media.nvm" "nvm.write_bytes_per_update" "B" Lower "lat_tail99_us on ycsb-a-zipf";
    lm "media.nvm" "nvm.read_bytes_per_get" "B" Lower "lat_mean_us on ycsb-c-hot";
    lm "media.nvm" "nvm.write_persist.ns_per_call" "ns" Lower "host_kops on ycsb-a-zipf";
    lm "cluster" "cluster.prepares_per_commit" "count" Lower "lat_tail99_us on cluster-txn";
    lm "cluster" "cluster.abort_ratio" "ratio" Lower "lat_tail99_us on cluster-txn";
    lm "cluster" "cluster.timeouts" "count" Lower "lat_tail99_us on cluster-txn";
    lm "cluster" "cluster.locks_held_max" "count" Lower "lat_tail99_us on cluster-txn";
    lm "cluster" "net.msgs_per_op" "count" Lower "vkops on cluster-txn";
    lm "cluster" "net.bytes_per_op" "B" Lower "vkops on cluster-txn";
    lm "cluster" "cluster.log_bytes_per_commit" "B" Lower "peak_rss_mb on cluster-txn";
    lm "check" "dpor.runs_per_class" "count" Lower "host_kops on dpor-check";
    lm "check" "dpor.pruned_ratio" "ratio" Lower "host_kops on dpor-check";
    lm "check" "dpor.heap_mb_per_class" "MB" Lower "peak_rss_mb on dpor-check";
    lm "trace" "trace.overhead" "ratio" Higher "none: traced over bare host_kops";
  ]

let find_workload name = List.find_opt (fun w -> w.w_name = name) workloads

let find_e2e name = List.find_opt (fun m -> m.e_name = name) end_to_end

(* The canonical BENCHMARK.json lines for each table entry: the file must
   contain each one verbatim (checked by the table test). *)
let workload_line w =
  Printf.sprintf {|{"name": %S, "why": %S}|} w.w_name w.why

let e2e_line m =
  Printf.sprintf {|{"name": %S, "unit": %S, "better": %S, "bound": %g}|}
    m.e_name m.e_unit (better_name m.e_better) m.bound

let layer_line m =
  Printf.sprintf {|{"name": %S, "unit": %S, "better": %S}|} m.l_name m.l_unit
    (better_name m.l_better)

(* How long one run measures; BENCHMARK.json's runner passes it back as
   --seconds. *)
let run_seconds = 15

let benchmark_json =
  let block items render =
    String.concat ",\n" (List.map (fun x -> "    " ^ render x) items)
  in
  String.concat ""
    [
      "{\n";
      {|  "command": ["bash", "benchmark/run.sh"],|};
      "\n";
      {|  "paths": ["benchmark"],|};
      "\n";
      Printf.sprintf {|  "run_seconds": %d,|} run_seconds;
      "\n  \"workloads\": [\n";
      block workloads workload_line;
      "\n  ],\n  \"end_to_end\": [\n";
      block end_to_end e2e_line;
      "\n  ],\n  \"per_layer\": [\n";
      block per_layer layer_line;
      "\n  ]\n}\n";
    ]
