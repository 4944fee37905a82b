(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DESIGN.md section 3 maps experiment ids to this file).

   Usage:
     bench/main.exe                 run every experiment (small scale)
     bench/main.exe --exp fig7      run one experiment
     bench/main.exe --scale full    larger datasets (slower, sharper)

   Host-time microbenchmarks live in bench/perf.exe. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_cli

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Scenario scales                                                   *)
(* ---------------------------------------------------------------- *)

let small_scenario =
  {
    Setup.default_scenario with
    records = 20_000;
    value_size = 256;
    threads = 32;
    num_ssds = 4;
    ops = 16_000;
    scan_ops = 1_600;
  }

let full_scenario =
  {
    Setup.default_scenario with
    records = 60_000;
    value_size = 256;
    threads = 40;
    num_ssds = 8;
    ops = 40_000;
    scan_ops = 4_000;
  }

let scenario = ref small_scenario

(* --jobs: fleet worker processes. Every simulation below is a Runner
   cell; an experiment farms its cells and prints on the coordinator, in
   the order it declared them, so the output is byte-identical for any
   worker count. A cell's readings leave its worker marshalled, so they
   are plain data: a registry travels as its dump, never as the live
   [Stats.t], whose gauges close over the whole store. *)
let jobs = ref 1

(* --stats / --stats-json: the fig7 and fig17 registries, emitted in
   declaration order. *)
let stats_requested = ref false

let stats_json_path : string option ref = ref None

let collected_stats : (string * string) list ref = ref []

let stats_wanted () = !stats_requested || !stats_json_path <> None

(* A registry as plain data, so the probe's result can leave a fleet
   worker: its JSON export and its text dump. *)
let dump reg =
  Stats.register_gc reg;
  (Stats.to_json reg, Format.asprintf "%a" Stats.pp reg)

let emit_stats label (json, text) =
  collected_stats := (label, json) :: !collected_stats;
  if !stats_requested then Format.printf "  [%s registry]@.%s@." label text

let write_collected_stats () =
  match !stats_json_path with
  | None -> ()
  | Some path ->
      Json.write path
        (Json.Obj
           (List.rev_map (fun (label, json) -> (label, Json.Raw json))
              !collected_stats));
      pf "wrote metric registries to %s\n" path

(* ---------------------------------------------------------------- *)
(* Cells                                                             *)
(* ---------------------------------------------------------------- *)

let cell label scenario make phases = { Runner.label; scenario; make; phases }

let named name e s = (Setup.of_name name s e, None)

let prism ?tweak e s =
  let kv, store = Setup.prism ?tweak e s in
  (kv, Some store)

(* Each mix then a quiesce, so the next mix starts from a drained store. *)
let quiesced mixes = List.concat_map (fun mix -> [ Runner.Run mix; Runner.Quiesce ]) mixes

let registry p = Engine.stats p.Runner.engine

(* Device counters come from the engine's metric registry, under the
   store's sanitized name prefix (see Kv.stat_prefix). *)
let ssd_written p =
  Stats.get_int (registry p) (p.Runner.kv.Kv.stat_prefix ^ ".device.ssd.bytes_written")

let index_bytes p = Prism_core.Store.nvm_index_bytes (Option.get p.Runner.prism)

(* [farm keys cell] runs [cell k] for every (distinct) key on the fleet
   and returns the lookup from a key to its outcome. Outcomes merge by
   position, never by completion order. *)
let farm keys cell =
  let cells = Array.of_list (List.map cell keys) in
  let outcomes =
    Prism_fleet.Fleet.farm ~jobs:!jobs (Array.length cells) (fun i ->
        Runner.run_cell cells.(i))
  in
  let merged = List.combine keys (Array.to_list outcomes) in
  fun key -> List.assoc key merged

let grid xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let kops r = Report.kops r.Runner.kops

let avg_us r = Report.us (Hist.mean r.Runner.latency /. 1e3)

let p50_us r = Report.us (Hist.to_us (Hist.median r.Runner.latency))

let p99_us r = Report.us (Hist.to_us (Hist.percentile r.Runner.latency 99.0))

let first o = List.hd o.Runner.results

(* A row of LOAD and per-phase throughputs. *)
let kops_row name o = name :: kops o.Runner.load :: List.map kops o.Runner.results

(* The throughput table of (name, outcome) rows, then a latency table
   for each of YCSB-A, C and E. *)
let suite_tables ~throughput ~latency all =
  Report.table ~title:throughput
    ~columns:[ "Store"; "LOAD"; "A"; "B"; "C"; "D"; "E" ]
    (List.map (fun (name, o) -> kops_row name o) all);
  List.iter
    (fun wanted ->
      Report.table
        ~title:(Printf.sprintf "%s — Latency (us), YCSB-%s" latency wanted)
        ~columns:[ "Store"; "Average"; "Median"; "99%" ]
        (List.filter_map
           (fun (name, o) ->
             List.find_opt (fun r -> r.Runner.workload = wanted) o.Runner.results
             |> Option.map (fun r -> [ name; avg_us r; p50_us r; p99_us r ]))
           all))
    [ "A"; "C"; "E" ]

(* SLM-DB is single-threaded and was evaluated on a quarter of the data
   (§7.4). *)
let single_thread s =
  {
    s with
    Setup.threads = 1;
    records = s.Setup.records / 4;
    ops = s.Setup.ops / 4;
    scan_ops = s.Setup.scan_ops / 4;
  }

let progress fmt = Printf.ksprintf (fun line -> pf "  %s done\n%!" line) fmt

(* ---------------------------------------------------------------- *)
(* Figure 1: device characteristics                                  *)
(* ---------------------------------------------------------------- *)

let fig1 () =
  Report.section "Figure 1: heterogeneous storage media";
  let open Prism_device in
  Report.table ~title:""
    ~columns:
      [ "Device"; "ReadBW GB/s"; "WriteBW GB/s"; "ReadLat us"; "WriteLat us"; "$/TB" ]
    (List.map
       (fun s ->
         [
           s.Spec.name;
           Printf.sprintf "%.1f" (s.Spec.read_bw /. 1e9);
           Printf.sprintf "%.1f" (s.Spec.write_bw /. 1e9);
           Printf.sprintf "%.2f" (s.Spec.read_lat *. 1e6);
           Printf.sprintf "%.2f" (s.Spec.write_lat *. 1e6);
           Printf.sprintf "%.0f" s.Spec.cost_per_tb;
         ])
       Spec.catalogue)

(* ---------------------------------------------------------------- *)
(* Table 1: equal-cost configurations                                 *)
(* ---------------------------------------------------------------- *)

let table1 () =
  let s = !scenario in
  Report.section
    (Printf.sprintf "Table 1: equal-cost configurations (dataset %.1f MB)"
       (float_of_int (Setup.dataset_bytes s) /. 1048576.0));
  let bills = Costing.all s in
  Report.table ~title:""
    ~columns:[ "System"; "DRAM cache"; "NVM buffer"; "Cost ($, scaled)" ]
    (List.map
       (fun b ->
         [
           b.Costing.system;
           Printf.sprintf "%.1f MB" (float_of_int b.Costing.dram_bytes /. 1048576.0);
           (if b.Costing.nvm_bytes = 0 then "-"
            else Printf.sprintf "%.1f MB" (float_of_int b.Costing.nvm_bytes /. 1048576.0));
           Printf.sprintf "%.4f" b.Costing.total_cost;
         ])
       bills);
  pf "  equal-cost within 2%%: %b\n" (Costing.balanced bills)

(* ---------------------------------------------------------------- *)
(* Table 2: workload characteristics                                  *)
(* ---------------------------------------------------------------- *)

let table2 () =
  Report.section "Table 2: YCSB workload characteristics";
  Report.table ~title:""
    ~columns:[ "Workload"; "Reads"; "Updates"; "Inserts"; "Scans"; "Dist" ]
    (List.map
       (fun m ->
         [
           m.Ycsb.name;
           Printf.sprintf "%.0f%%" (m.Ycsb.reads *. 100.0);
           Printf.sprintf "%.0f%%" (m.Ycsb.updates *. 100.0);
           Printf.sprintf "%.0f%%" (m.Ycsb.inserts *. 100.0);
           Printf.sprintf "%.0f%%" (m.Ycsb.scans *. 100.0);
           (if m.Ycsb.latest then "latest" else "zipfian");
         ])
       (Ycsb.all_ycsb @ [ Ycsb.nutanix ]))

(* ---------------------------------------------------------------- *)
(* Figure 7 + Table 3: YCSB across the four contenders               *)
(* ---------------------------------------------------------------- *)

let fig7 () =
  let s = !scenario in
  Report.section
    (Printf.sprintf
       "Figure 7 + Table 3: YCSB, %d threads, %d SSDs, %d keys x %dB, Zipf %.2f"
       s.Setup.threads s.Setup.num_ssds s.Setup.records s.Setup.value_size
       s.Setup.theta);
  let names = [ "Prism"; "KVell"; "MatrixKV"; "RocksDB-NVM" ] in
  let harvest =
    if stats_wanted () then [ Runner.Read (fun p -> dump (registry p)) ] else []
  in
  let outcome =
    farm names (fun name ->
        cell ("fig7." ^ Stats.sanitize name) s (named name)
          (quiesced Ycsb.all_ycsb @ harvest))
  in
  let all =
    List.map
      (fun name ->
        let o = outcome name in
        List.iter (emit_stats ("fig7." ^ Stats.sanitize name)) o.Runner.reads;
        progress "%s" name;
        (name, o))
      names
  in
  suite_tables ~throughput:"Throughput (kops/s; workload E in kops/s of scans)"
    ~latency:"Table 3" all

(* ---------------------------------------------------------------- *)
(* Figure 8 + Table 4: Prism vs SLM-DB (single thread, reduced set)   *)
(* ---------------------------------------------------------------- *)

let fig8 () =
  let s = single_thread !scenario in
  Report.section
    (Printf.sprintf "Figure 8 + Table 4: Prism vs SLM-DB (1 thread, %d keys)"
       s.Setup.records);
  let makers =
    [
      ( "Prism",
        (* The paper shrinks Prism's SVC/PWB to SLM-DB's footprint. *)
        prism ~tweak:(fun cfg ->
            {
              cfg with
              Prism_core.Config.svc_capacity = 64 * 1024;
              pwb_size = 64 * 1024;
              nvm_size =
                (64 * 1024) + (cfg.Prism_core.Config.hsit_capacity * 16)
                + (4 * 1024 * 1024);
            }) );
      ("SLM-DB", fun e s -> (Setup.slmdb e s, None));
    ]
  in
  let outcome =
    farm (List.map fst makers) (fun name ->
        cell name s (List.assoc name makers) (quiesced Ycsb.all_ycsb))
  in
  suite_tables ~throughput:"Throughput (kops/s)" ~latency:"Table 4"
    (List.map (fun (name, _) -> (name, outcome name)) makers)

(* ---------------------------------------------------------------- *)
(* Figure 9: throughput vs Zipfian coefficient                        *)
(* ---------------------------------------------------------------- *)

let fig9 () =
  let base = !scenario in
  let s =
    {
      base with
      Setup.records = base.Setup.records / 2;
      ops = base.Setup.ops / 3;
      scan_ops = base.Setup.scan_ops / 3;
    }
  in
  let thetas = [ 0.5; 0.9; 0.99; 1.2; 1.5 ] in
  Report.section
    "Figure 9: relative throughput vs Zipfian coefficient (normalized to 0.99)";
  let names = [ "Prism"; "KVell"; "MatrixKV"; "RocksDB-NVM"; "SLM-DB" ] in
  (* One loaded store per (store, theta) cell: the skew affects the run
     phase. *)
  let outcome =
    farm (grid names thetas) (fun (name, theta) ->
        let s = if name = "SLM-DB" then single_thread s else s in
        cell name { s with Setup.theta } (named name) (quiesced Ycsb.all_ycsb))
  in
  List.iter
    (fun name ->
      let rows =
        List.map
          (fun theta ->
            List.map (fun r -> r.Runner.kops) (outcome (name, theta)).Runner.results)
          thetas
      in
      (* Normalize to theta = 0.99 (third entry). *)
      let baseline = List.nth rows 2 in
      Report.table
        ~title:(Printf.sprintf "(%s) relative throughput" name)
        ~columns:[ "Zipf"; "A"; "B"; "C"; "D"; "E" ]
        (List.map2
           (fun theta row ->
             Printf.sprintf "%.2f" theta
             :: List.map2
                  (fun v b -> Printf.sprintf "%.2f" (v /. b))
                  row baseline)
           thetas rows);
      progress "%s" name)
    names

(* ---------------------------------------------------------------- *)
(* Figure 10: large dataset + Nutanix production mix                  *)
(* ---------------------------------------------------------------- *)

let fig10a () =
  let base = !scenario in
  let s =
    {
      base with
      Setup.records = base.Setup.records * 4;
      ops = base.Setup.ops;
      scan_ops = base.Setup.scan_ops;
    }
  in
  Report.section
    (Printf.sprintf "Figure 10a: YCSB at 4x dataset (%d keys), Prism vs KVell"
       s.Setup.records);
  let names = [ "Prism"; "KVell" ] in
  let outcome =
    farm names (fun name -> cell name s (named name) (quiesced Ycsb.all_ycsb))
  in
  Report.table ~title:"Throughput (kops/s)"
    ~columns:[ "Store"; "A"; "B"; "C"; "D"; "E" ]
    (List.map
       (fun name -> name :: List.map kops (outcome name).Runner.results)
       names)

let fig10b () =
  let s = !scenario in
  Report.section "Figure 10b: Nutanix production mix (57% upd / 41% read / 2% scan)";
  let names = [ "Prism"; "KVell" ] in
  let outcome =
    farm names (fun name -> cell name s (named name) [ Runner.Run Ycsb.nutanix ])
  in
  Report.table ~title:"Throughput (kops/s)" ~columns:[ "Store"; "Nutanix" ]
    (List.map (fun name -> name :: List.map kops (outcome name).Runner.results) names)

(* ---------------------------------------------------------------- *)
(* Figure 11: thread combining vs timeout batching, queue-depth sweep *)
(* ---------------------------------------------------------------- *)

let fig11 () =
  let s = !scenario in
  Report.section "Figure 11: opportunistic thread combining (TC) vs timeout IO (TA), YCSB-C";
  let depths = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let outcome =
    farm (grid depths [ true; false ]) (fun (qd, tc) ->
        cell (Printf.sprintf "QD %d" qd) s
          (prism ~tweak:(fun cfg ->
               {
                 cfg with
                 Prism_core.Config.queue_depth = qd;
                 use_thread_combining = tc;
                 (* Shrink the SVC so reads actually reach the SSD. *)
                 svc_capacity = 256 * 1024;
               }))
          [ Runner.Run Ycsb.ycsb_c ])
  in
  let rows =
    List.map
      (fun qd ->
        let tc = first (outcome (qd, true)) and ta = first (outcome (qd, false)) in
        progress "QD %d" qd;
        [
          string_of_int qd; kops tc; kops ta; avg_us tc; avg_us ta; p99_us tc;
          p99_us ta;
        ])
      depths
  in
  Report.table ~title:"Throughput and latency vs queue depth"
    ~columns:[ "QD"; "TC kops"; "TA kops"; "TC avg us"; "TA avg us"; "TC p99"; "TA p99" ]
    rows

(* ---------------------------------------------------------------- *)
(* Figure 12: SSD write amplification vs skew                         *)
(* ---------------------------------------------------------------- *)

let fig12 () =
  let base = !scenario in
  Report.section "Figure 12: SSD write amplification vs Zipfian skew";
  let value_sizes = [ 512; 1024 ] in
  let store_names = [ "Prism"; "KVell"; "MatrixKV" ] in
  let thetas = [ 0.5; 0.99; 1.2 ] in
  let update_only = { Ycsb.ycsb_a with reads = 0.0; updates = 1.0 } in
  (* SSD bytes written around a quiesced update-only run. *)
  let outcome =
    farm (grid (grid value_sizes store_names) thetas)
      (fun ((value_size, name), theta) ->
        let s =
          {
            base with
            Setup.value_size;
            records = base.Setup.records / 2;
            ops = base.Setup.ops * 2;
            theta;
          }
        in
        cell name s (named name)
          Runner.
            [ Quiesce; Read ssd_written; Run update_only; Quiesce; Read ssd_written ])
  in
  let waf key =
    match outcome key with
    | { Runner.results = [ r ]; reads = [ before; after ]; _ } ->
        let app = r.Runner.ops * fst (fst key) in
        Printf.sprintf "%.2f" (float_of_int (after - before) /. float_of_int app)
    | _ -> assert false
  in
  List.iter
    (fun value_size ->
      Report.table
        ~title:(Printf.sprintf "SSD-level WAF, %dB values" value_size)
        ~columns:[ "Store"; "Zipf 0.5"; "Zipf 0.99"; "Zipf 1.2" ]
        (List.map
           (fun name ->
             name :: List.map (fun theta -> waf ((value_size, name), theta)) thetas)
           store_names);
      progress "%dB" value_size)
    value_sizes

(* ---------------------------------------------------------------- *)
(* Figures 13/14: scaling the number of SSDs                          *)
(* ---------------------------------------------------------------- *)

let fig13_14 () =
  let base = !scenario in
  Report.section "Figures 13/14: throughput and latency vs number of SSDs";
  let ssd_counts = [ 1; 2; 4; 8 ] in
  let mixes = [ Ycsb.ycsb_a; Ycsb.ycsb_c ] in
  let names = [ "Prism"; "KVell" ] in
  let outcome =
    farm (grid (grid mixes names) ssd_counts) (fun ((mix, name), num_ssds) ->
        cell name { base with Setup.num_ssds } (named name) [ Runner.Run mix ])
  in
  let columns = "Store" :: List.map (fun n -> Printf.sprintf "%d SSD" n) ssd_counts in
  List.iter
    (fun mix ->
      List.iter
        (fun (name, n) -> progress "%s %s %dssd" name mix.Ycsb.name n)
        (grid names ssd_counts);
      let rows f =
        List.map
          (fun name ->
            name :: List.map (fun n -> f (first (outcome ((mix, name), n)))) ssd_counts)
          names
      in
      Report.table
        ~title:(Printf.sprintf "Figure 13 — Throughput (kops/s), YCSB-%s" mix.Ycsb.name)
        ~columns (rows kops);
      if mix.Ycsb.name = "C" then
        List.iter
          (fun (title, f) ->
            Report.table
              ~title:(Printf.sprintf "Figure 14 — %s latency (us), YCSB-C" title)
              ~columns (rows f))
          [ ("Average", avg_us); ("Median", p50_us); ("99%", p99_us) ])
    mixes

(* ---------------------------------------------------------------- *)
(* Figure 15: PWB and SVC size sweeps                                 *)
(* ---------------------------------------------------------------- *)

let fig15 () =
  let s = !scenario in
  Report.section "Figure 15: impact of PWB and SVC sizes";
  let dataset = Setup.dataset_bytes s in
  let pwb_fracs = [ 0.05; 0.10; 0.20; 0.40 ] in
  let svc_fracs = [ 0.04; 0.10; 0.20; 0.40 ] in
  (* (a) sweeps the PWB on LOAD and A; (b) the SVC on C then E. *)
  let outcome =
    farm
      (List.map (fun f -> `Pwb f) pwb_fracs @ List.map (fun f -> `Svc f) svc_fracs)
      (function
        | `Pwb frac ->
            let pwb =
              Prism_sim.Bits.round_up
                (max 8192
                   (int_of_float (float_of_int dataset *. frac) / s.Setup.threads))
                16
            in
            cell "pwb" s
              (prism ~tweak:(fun cfg ->
                   {
                     cfg with
                     Prism_core.Config.pwb_size = pwb;
                     nvm_size =
                       (s.Setup.threads * pwb)
                       + (cfg.Prism_core.Config.hsit_capacity * 16)
                       + (8 * 1024 * 1024);
                   }))
              [ Runner.Run Ycsb.ycsb_a ]
        | `Svc frac ->
            let svc = max 65536 (int_of_float (float_of_int dataset *. frac)) in
            cell "svc" s
              (prism ~tweak:(fun cfg ->
                   { cfg with Prism_core.Config.svc_capacity = svc }))
              [ Runner.Run Ycsb.ycsb_c; Runner.Run Ycsb.ycsb_e ])
  in
  let fraction frac = Printf.sprintf "%.0f%% of dataset" (frac *. 100.0) in
  Report.table ~title:"(a) throughput vs total PWB size"
    ~columns:[ "PWB total"; "LOAD"; "A" ]
    (List.map
       (fun frac ->
         let o = outcome (`Pwb frac) in
         progress "pwb %.0f%%" (frac *. 100.0);
         kops_row (fraction frac) o)
       pwb_fracs);
  Report.table ~title:"(b) throughput vs SVC size"
    ~columns:[ "SVC"; "C"; "E" ]
    (List.map
       (fun frac ->
         let o = outcome (`Svc frac) in
         progress "svc %.0f%%" (frac *. 100.0);
         fraction frac :: List.map kops o.Runner.results)
       svc_fracs)

(* ---------------------------------------------------------------- *)
(* Figure 16: multicore scalability                                   *)
(* ---------------------------------------------------------------- *)

let fig16 () =
  let base = !scenario in
  Report.section "Figure 16: multicore scalability";
  let thread_counts = [ 4; 8; 16; 32 ] in
  let mixes = [ Ycsb.ycsb_a; Ycsb.ycsb_c; Ycsb.ycsb_e ] in
  let stores =
    [
      ("Prism", prism ?tweak:None);
      ("KVell(QD64)", fun e s -> (Setup.kvell ~queue_depth:64 e s, None));
      ("KVell(QD1)", fun e s -> (Setup.kvell ~queue_depth:1 e s, None));
      ("MatrixKV", named "MatrixKV");
    ]
  in
  let outcome =
    farm (grid (grid mixes (List.map fst stores)) thread_counts)
      (fun ((mix, name), threads) ->
        cell name { base with Setup.threads } (List.assoc name stores)
          [ Runner.Run mix ])
  in
  List.iter
    (fun mix ->
      let rows =
        List.map
          (fun (name, _) ->
            progress "%s %s" name mix.Ycsb.name;
            name
            :: List.map (fun t -> kops (first (outcome ((mix, name), t)))) thread_counts)
          stores
      in
      Report.table
        ~title:(Printf.sprintf "Throughput vs threads, YCSB-%s" mix.Ycsb.name)
        ~columns:
          ("Store" :: List.map (fun t -> Printf.sprintf "%d thr" t) thread_counts)
        rows)
    mixes

(* ---------------------------------------------------------------- *)
(* Figure 17: garbage collection impact timeline                      *)
(* ---------------------------------------------------------------- *)

let fig17 () =
  let base = !scenario in
  Report.section "Figure 17: throughput timeline across Value Storage GC (YCSB-A)";
  let s = { base with Setup.ops = base.Setup.ops * 3 } in
  (* Small Value Storage so GC must run during the workload. *)
  let tweak cfg =
    let dataset = Setup.dataset_bytes s in
    let chunk = cfg.Prism_core.Config.chunk_size in
    {
      cfg with
      Prism_core.Config.vs_size =
        Prism_sim.Bits.round_up
          (max (8 * chunk) (dataset * 2 / cfg.num_value_storages))
          chunk;
    }
  in
  (* GC passes so far; after the run also the throughput timeline's
     windows, which are the figure, and (for --stats-json, which exports
     the timeline under "bench.throughput") the registry. *)
  let gc p = Prism_core.Store.gc_runs (Option.get p.Runner.prism) in
  let after p =
    let reg = registry p in
    ( gc p,
      Metric.Timeline.windows (Stats.timeline reg "bench.throughput" ~interval:1e-3),
      if stats_wanted () then Some (dump reg) else None )
  in
  let outcome =
    farm [ () ] (fun () ->
        cell "fig17.prism" s (prism ~tweak)
          Runner.
            [
              Read (fun p -> (gc p, [], None));
              Run_timeline ("bench.throughput", Ycsb.ycsb_a);
              Read after;
            ])
  in
  match (outcome ()).Runner.reads with
  | [ (gc_before, _, _); (gc_after, windows, registry) ] ->
      Option.iter (emit_stats "fig17.prism") registry;
      Report.table
        ~title:
          (Printf.sprintf "ops per 1ms window (GC passes during run: %d)"
             (gc_after - gc_before))
        ~columns:[ "t (ms)"; "kops/s" ]
        (windows
        |> List.map (fun (t, count, _) ->
               [
                 Printf.sprintf "%.0f" (t *. 1e3);
                 Printf.sprintf "%.0f" (float_of_int count /. 1e-3 /. 1e3);
               ]))
  | _ -> assert false

(* ---------------------------------------------------------------- *)
(* Prism variants: the ablation (§7.6 "impact of individual           *)
(* techniques"), Key Index independence (§4.1/§6: "Prism can replace  *)
(* it with any other range index") and emerging media (§8)            *)
(* ---------------------------------------------------------------- *)

(* One fresh Prism per (name, config tweak) variant, quiesced after each
   of [mixes] and then observed by [reads]; a table row per variant. *)
let variant_table ~title ~columns ?(reads = []) ?(extra = fun _ -> []) ~mixes
    tweaks =
  let outcome =
    farm (List.map fst tweaks) (fun name ->
        cell name !scenario
          (prism ~tweak:(List.assoc name tweaks))
          (quiesced mixes @ List.map (fun f -> Runner.Read f) reads))
  in
  Report.table ~title ~columns
    (List.map
       (fun (name, _) ->
         let o = outcome name in
         progress "%s" name;
         kops_row name o @ extra o.Runner.reads)
       tweaks)

let ablation () =
  Report.section "Ablation: impact of individual techniques (§7.6)";
  let tweaks =
    [
      ("full Prism", Fun.id);
      ( "TA instead of TC",
        fun cfg -> { cfg with Prism_core.Config.use_thread_combining = false } );
      ("no SVC", fun cfg -> { cfg with Prism_core.Config.use_svc = false });
      ( "no scan reorganization",
        fun cfg -> { cfg with Prism_core.Config.scan_reorganize = false } );
      ( "synchronous reclamation",
        fun cfg -> { cfg with Prism_core.Config.async_reclaim = false } );
    ]
  in
  variant_table ~title:"Throughput (kops/s)"
    ~columns:[ "Variant"; "LOAD"; "A"; "C"; "E" ]
    ~mixes:[ Ycsb.ycsb_a; Ycsb.ycsb_c; Ycsb.ycsb_e ] tweaks

let index_exp () =
  Report.section "Key Index independence: B+-tree vs Adaptive Radix Tree";
  let tweaks =
    List.map
      (fun (name, impl) ->
        (name, fun cfg -> { cfg with Prism_core.Config.key_index = impl }))
      [ ("B+-tree", `Btree); ("ART", `Art) ]
  in
  variant_table ~title:"Throughput (kops/s) and index NVM footprint"
    ~columns:[ "Index"; "LOAD"; "A"; "C"; "E"; "NVM footprint" ]
    ~extra:
      (List.map (fun bytes ->
           Printf.sprintf "%.1f MB" (float_of_int bytes /. 1048576.0)))
    ~reads:[ index_bytes ]
    ~mixes:[ Ycsb.ycsb_a; Ycsb.ycsb_c; Ycsb.ycsb_e ] tweaks

let discussion () =
  Report.section
    "Discussion (§8): Prism on emerging media (buffer device swapped)";
  let media =
    [
      ("Optane DCPMM x6", Setup.nvm_array_spec);
      ("CXL pmem (1 device)", Prism_device.Spec.cxl_pmem);
      ( "CXL pmem x4",
        {
          Prism_device.Spec.cxl_pmem with
          Prism_device.Spec.read_bw =
            Prism_device.Spec.cxl_pmem.Prism_device.Spec.read_bw *. 4.0;
          write_bw =
            Prism_device.Spec.cxl_pmem.Prism_device.Spec.write_bw *. 4.0;
        } );
    ]
  in
  let tweaks =
    List.map
      (fun (name, spec) ->
        (name, fun cfg -> { cfg with Prism_core.Config.nvm_spec = spec }))
      media
  in
  variant_table ~title:"Prism throughput with different buffer media (kops/s)"
    ~columns:[ "Buffer medium"; "LOAD"; "A"; "C" ]
    ~mixes:[ Ycsb.ycsb_a; Ycsb.ycsb_c ] tweaks

(* ---------------------------------------------------------------- *)
(* NVM space (§7.6)                                                   *)
(* ---------------------------------------------------------------- *)

let nvmspace () =
  let s = !scenario in
  Report.section "NVM space: Key Index + HSIT footprint (§7.6)";
  let outcome = farm [ () ] (fun () -> cell "Prism" s prism [ Runner.Read index_bytes ]) in
  let bytes = List.hd (outcome ()).Runner.reads in
  let per_key = float_of_int bytes /. float_of_int s.Setup.records in
  Report.table ~title:""
    ~columns:[ "Keys"; "Index+HSIT bytes"; "Bytes/key"; "Paper (100M keys)" ]
    [
      [
        string_of_int s.Setup.records;
        string_of_int bytes;
        Printf.sprintf "%.1f" per_key;
        "5.4 GB total (~54 B/key)";
      ];
    ]

(* ---------------------------------------------------------------- *)
(* Recovery (§7.6)                                                    *)
(* ---------------------------------------------------------------- *)

let recovery () =
  let s = !scenario in
  Report.section "Recovery time after crash (§7.6)";
  (* Each store's read is (virtual recovery time, recovered keys). *)
  let prism_crash p =
    let e = p.Runner.engine and store = Option.get p.Runner.prism in
    Engine.clear_pending e;
    Prism_core.Store.crash store;
    let t0 = Engine.now e and t1 = ref nan and recovered = ref 0 in
    Engine.spawn e (fun () ->
        recovered := Prism_core.Store.recover store;
        t1 := Engine.now e);
    ignore (Engine.run e);
    (!t1 -. t0, !recovered)
  in
  (* KVell recovers by scanning its whole SSD slice. *)
  let kvell_scan p =
    ( Option.value ~default:nan (Runner.recovery_time p.Runner.engine p.Runner.kv),
      s.Setup.records )
  in
  let stores =
    [ ("Prism", (prism ?tweak:None, prism_crash)); ("KVell", (named "KVell", kvell_scan)) ]
  in
  let outcome =
    farm (List.map fst stores) (fun name ->
        let make, read = List.assoc name stores in
        cell name s make [ Runner.Read read ])
  in
  Report.table ~title:""
    ~columns:[ "Store"; "Recovered keys"; "Virtual time (ms)" ]
    (List.map
       (fun name ->
         let time, keys = List.hd (outcome name).Runner.reads in
         [ name; string_of_int keys; Printf.sprintf "%.2f" (time *. 1e3) ])
       (List.map fst stores))

(* ---------------------------------------------------------------- *)
(* Driver                                                             *)
(* ---------------------------------------------------------------- *)

let experiments =
  [
    ("fig1", fig1);
    ("table1", table1);
    ("table2", table2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13_14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("ablation", ablation);
    ("index", index_exp);
    ("discussion", discussion);
    ("nvmspace", nvmspace);
    ("recovery", recovery);
  ]

let run_experiments names =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      if names = [] || List.mem name names then begin
        let t = Unix.gettimeofday () in
        f ();
        pf "[%s finished in %.1fs wall]\n%!" name (Unix.gettimeofday () -. t)
      end)
    experiments;
  write_collected_stats ();
  pf "\nAll experiments done in %.1fs wall.\n" (Unix.gettimeofday () -. t0)

let () =
  let open Cmdliner in
  let exp =
    let ids = List.map (fun (name, _) -> (name, name)) experiments in
    Arg.(
      value
      & opt_all (enum ids) []
      & info [ "exp" ] ~docv:"ID"
          ~doc:
            ("Run one experiment (repeatable; default all). $(docv) is "
            ^ doc_alts_enum ids ^ "."))
  in
  let scale =
    Arg.(
      value
      & opt (enum [ ("small", small_scenario); ("full", full_scenario) ])
          small_scenario
      & info [ "scale" ] ~doc:"$(b,small) or $(b,full)")
  in
  let main () exp scale stats stats_json j =
    scenario := scale;
    stats_requested := stats;
    stats_json_path := stats_json;
    jobs := j;
    run_experiments exp
  in
  Cli.exec ~name:"prism-bench"
    ~doc:"Regenerate the paper's tables and figures"
    Term.(
      const main $ Cli.gc_tune $ exp $ scale
      $ Cli.stats
      $ Cli.stats_json
          ~doc:
            "Write every harvested run's metric registry to $(docv) as one \
             JSON object keyed by run label"
      $ Cli.jobs)
