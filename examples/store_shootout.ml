(* A miniature shootout: run the same skewed mixed workload against Prism
   and every baseline this repository implements (KVell, MatrixKV,
   RocksDB-NVM, SLM-DB), printing a one-line summary per system.

   This is the public API the benchmark harness uses, condensed: build a
   store through Prism_harness.Setup (equal-cost sizing per the paper's
   Table 1), drive it with Prism_harness.Runner, read the results.

   Run with: dune exec examples/store_shootout.exe *)

open Prism_sim
open Prism_harness
open Prism_workload

let scenario =
  {
    Setup.default_scenario with
    records = 8_000;
    value_size = 256;
    threads = 8;
    num_ssds = 2;
    ops = 8_000;
    scan_ops = 800;
  }

let () =
  let stores =
    [
      ("Prism", fun e -> fst (Setup.prism e scenario));
      ("KVell", fun e -> Setup.kvell e scenario);
      ("MatrixKV", fun e -> Setup.matrixkv e scenario);
      ("RocksDB-NVM", fun e -> Setup.rocksdb_nvm e scenario);
    ]
  in
  Printf.printf
    "workload: %d keys x %dB, %d threads, %d SSDs, YCSB-A then YCSB-C (Zipf %.2f)\n\n"
    scenario.records scenario.value_size scenario.threads scenario.num_ssds
    scenario.theta;
  Printf.printf "%-12s %12s %12s %12s %14s\n" "store" "LOAD kops" "A kops"
    "C kops" "C p99 (us)";
  List.iter
    (fun (name, make) ->
      let e = Engine.create () in
      let kv = make e in
      let load = Runner.load e kv scenario in
      let a = Runner.run e kv Ycsb.ycsb_a scenario in
      let c = Runner.run e kv Ycsb.ycsb_c scenario in
      Printf.printf "%-12s %12.1f %12.1f %12.1f %14.1f\n%!" name
        load.Runner.kops a.Runner.kops c.Runner.kops
        (Hist.to_us (Hist.percentile c.Runner.latency 99.0)))
    stores;
  (* SLM-DB is single-threaded; give it its own reduced run. *)
  let e = Engine.create () in
  let slm_scenario = { scenario with Setup.records = 2_000; threads = 1; ops = 2_000 } in
  let kv = Setup.slmdb e slm_scenario in
  let load = Runner.load e kv slm_scenario in
  let a = Runner.run e kv Ycsb.ycsb_a slm_scenario in
  let c = Runner.run e kv Ycsb.ycsb_c slm_scenario in
  Printf.printf "%-12s %12.1f %12.1f %12.1f %14.1f  (1 thread, reduced set)\n"
    "SLM-DB" load.Runner.kops a.Runner.kops c.Runner.kops
    (Hist.to_us (Hist.percentile c.Runner.latency 99.0));
  print_endline "\nstore_shootout done."
