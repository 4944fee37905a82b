(* bench/cluster_sweep: shard-scaling sweep of the Prism cluster.

   For each shard count, run the same YCSB phase against a
   hash-partitioned cluster (every shard a full Prism store inside one
   engine, clients routed over the simulated network) with every K-th
   put upgraded to a multi-key 2PC write batch. Record throughput,
   latency quantiles, transaction outcomes and network traffic. The
   claim under test: sharding scales single-key throughput while the
   cross-shard commit rate — prepares, network round trips — grows with
   the shard count, the coordination tax the sweep makes visible.

     dune exec bench/cluster_sweep.exe --                  default sweep
     dune exec bench/cluster_sweep.exe -- --quick          CI-sized
     dune exec bench/cluster_sweep.exe -- --shard-counts 1,2,4 \
         --txn-every 8 --json cluster.json

   Everything is virtual time, so a given --seed reproduces the sweep —
   including the JSON — byte-identically for any --jobs. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_cli

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = {
  shard_counts : int list;
  txn_every : int; (* every K-th put becomes a 3-key 2PC batch; 0 = none *)
  mix : Ycsb.mix;
  s : Setup.scenario; (* ops per cell whatever the mix *)
}

let default_config =
  {
    shard_counts = [ 1; 2; 4 ];
    txn_every = 8;
    mix = Ycsb.ycsb_a;
    s =
      { Setup.default_scenario with records = 8_000; threads = 4; ops = 20_000 };
  }

let quick_config =
  {
    default_config with
    shard_counts = [ 1; 2 ];
    s = { default_config.s with records = 4_000; ops = 8_000 };
  }

(* ---------------------------------------------------------------- *)
(* One cell: shard count -> measurements                             *)
(* ---------------------------------------------------------------- *)

type cell = {
  shards : int;
  kops : float;
  p50_us : float;
  p99_us : float;
  commits : int;
  aborts : int;
  prepares : int;
  routed : int; (* single-key ops routed over the network *)
  net_msgs : int;
  net_bytes : int;
}

let run_cell cfg ~shards =
  let s = cfg.s in
  let e = Engine.create () in
  (* Prepare records carry the batch's writes, and nothing truncates the
     logs mid-run, so size them for the whole phase: every batch may land
     all three writes on one shard (with key + length framing), 2x slack. *)
  let plog_size =
    let batches = (s.ops / max 1 cfg.txn_every) + 1 in
    max (1 lsl 20) (batches * 3 * (s.value_size + 64) * 2)
  in
  let ccfg =
    {
      Prism_cluster.Cluster.default with
      Prism_cluster.Cluster.shards;
      plog_size;
      seed = s.seed;
    }
  in
  let cluster, base_kv = Prism_cluster.Cluster.of_scenario e ccfg s in
  (* Mirror prism_ycsb --txn-every, so the measured phase commits
     cross-shard transactions at a fixed rate. *)
  let kv =
    Kv.instrument e
      (Prism_cluster.Cluster.with_batches cluster base_kv ~every:cfg.txn_every
         ~records:s.records ~seed:s.seed)
  in
  ignore (Runner.load e kv s);
  let r = Runner.run ~ops:s.ops e kv cfg.mix s in
  let gi = Stats.get_int (Engine.stats e) in
  let commits, aborts, prepares =
    Prism_cluster.Cluster.txn_stats cluster
  in
  {
    shards;
    kops = r.Runner.kops;
    p50_us = Hist.us_of_ns (Hist.quantile r.Runner.latency 50.0);
    p99_us = Hist.us_of_ns (Hist.quantile r.Runner.latency 99.0);
    commits;
    aborts;
    prepares;
    routed = gi "prism.cluster.ops.routed";
    net_msgs = gi "net.msgs";
    net_bytes = gi "net.bytes";
  }

(* One fleet job per shard count; merged in shard order so tables,
   progress lines and JSON stay byte-identical for any --jobs. *)
let run_points cfg ~jobs =
  let counts = Array.of_list cfg.shard_counts in
  let n = Array.length counts in
  let cells =
    Prism_fleet.Fleet.farm ~jobs n (fun i -> run_cell cfg ~shards:counts.(i))
  in
  List.init n (fun k ->
      let c = cells.(k) in
      pf "  %d shard%s done (%.0f kops, %d txns committed)\n%!" c.shards
        (if c.shards = 1 then "" else "s")
        c.kops c.commits;
      c)

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

let print_table points =
  Report.table ~title:"Cluster sweep: shard scaling under 2PC write batches"
    ~columns:
      [
        "shards"; "kops/s"; "p50 us"; "p99 us"; "commits"; "aborts";
        "prepares"; "routed"; "net msgs"; "net KB";
      ]
    (List.map
       (fun c ->
         [
           string_of_int c.shards;
           Printf.sprintf "%.1f" c.kops;
           Printf.sprintf "%.1f" c.p50_us;
           Printf.sprintf "%.1f" c.p99_us;
           string_of_int c.commits;
           string_of_int c.aborts;
           string_of_int c.prepares;
           string_of_int c.routed;
           string_of_int c.net_msgs;
           string_of_int (c.net_bytes / 1024);
         ])
       points)

(* The claim the sweep exists to check: every acked batch committed or
   aborted cleanly (2PC never wedges), and prepares scale with the
   participant count — more shards, more coordination. *)
let print_verdict cfg points =
  match points with
  | [] -> ()
  | first :: _ ->
      let last = List.nth points (List.length points - 1) in
      let expected_txns =
        if cfg.txn_every <= 0 then 0
        else
          (* Runner.run issues one put per update in the mix. *)
          List.fold_left (fun acc c -> max acc (c.commits + c.aborts)) 0
            points
      in
      let all_resolved =
        List.for_all
          (fun c ->
            cfg.txn_every <= 0 || c.commits + c.aborts = expected_txns)
          points
      in
      let coordination_grows =
        List.length points < 2 || last.prepares >= first.prepares
      in
      pf "  cluster: %d..%d shards, prepares %d -> %d, %s\n" first.shards
        last.shards first.prepares last.prepares
        (if all_resolved then "every batch resolved"
         else "TXN COUNTS DIVERGE across shard counts");
      if all_resolved && coordination_grows then
        pf "  cluster: verdict PASS (2PC resolved; coordination scales)\n"
      else pf "  cluster: verdict FAIL\n"

(* prism-cluster-v1: fixed member order and float formats, so the same
   seed writes byte-identical output. *)
let json_of_points cfg points =
  let open Json in
  let point c =
    Row
      [
        ("shards", Int c.shards);
        ("kops", fixed 3 c.kops);
        ("p50_us", fixed 3 c.p50_us);
        ("p99_us", fixed 3 c.p99_us);
        ("txn_commits", Int c.commits);
        ("txn_aborts", Int c.aborts);
        ("txn_prepares", Int c.prepares);
        ("ops_routed", Int c.routed);
        ("net_msgs", Int c.net_msgs);
        ("net_bytes", Int c.net_bytes);
      ]
  in
  Obj
    [
      ("schema", Str "prism-cluster-v1");
      ("seed", int64 cfg.s.seed);
      ("mix", Str cfg.mix.Ycsb.name);
      ("records", Int cfg.s.records);
      ("value_size", Int cfg.s.value_size);
      ("threads", Int cfg.s.threads);
      ("theta", fixed 4 cfg.s.theta);
      ("ops", Int cfg.s.ops);
      ("txn_every", Int cfg.txn_every);
      ("points", Arr (List.map point points));
    ]

(* ---------------------------------------------------------------- *)
(* CLI                                                               *)
(* ---------------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let main quick shard_counts txn_every mix scenario json jobs =
    let base = if quick then quick_config else default_config in
    let cfg =
      {
        shard_counts = Option.value shard_counts ~default:base.shard_counts;
        txn_every = Option.value txn_every ~default:base.txn_every;
        mix;
        s = scenario base.s;
      }
    in
    let t0 = Unix.gettimeofday () in
    Report.section
      (Printf.sprintf
         "Cluster shard-sweep: mix %s, %d keys x %dB, %d threads, %d \
          ops/cell, txn every %d"
         cfg.mix.Ycsb.name cfg.s.records cfg.s.value_size cfg.s.threads
         cfg.s.ops cfg.txn_every);
    let points = run_points cfg ~jobs in
    print_table points;
    print_verdict cfg points;
    (match json with
    | Some path ->
        Json.write path (json_of_points cfg points);
        pf "\nwrote cluster sweep to %s\n" path
    | None -> ());
    pf "\nSweep done in %.1fs wall.\n" (Unix.gettimeofday () -. t0)
  in
  Cli.exec ~name:"prism-cluster-sweep"
    ~doc:"Shard-scaling sweep of the 2PC Prism cluster"
    Term.(
      const main
      $ Cli.quick ~doc:"CI-sized sweep: 2 shard counts, smaller run"
      $ Cli.csv Cli.pos_int "shard-counts" ~doc:"Comma-separated shard counts"
      $ Cli.txn_every $ Cli.mix "a"
      $ Cli.scenario ~threads:("threads", "Client threads")
          ~ops:"Operations per cell"
      $ Cli.json ~doc:"Write the sweep as JSON to $(docv)"
      $ Cli.jobs)
