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

(* --jobs: fleet lanes for the experiments whose cells are independent
   whole simulations (fig7, fig9, fig12). Cells return pure results and
   all printing happens on the coordinator in cell order, so the output
   is byte-identical for any lane count. *)
let jobs = ref 1

let fleet_map n f = Prism_fleet.Fleet.farm ~jobs:!jobs n f

(* ---------------------------------------------------------------- *)
(* Helpers                                                           *)
(* ---------------------------------------------------------------- *)

(* Run a store's quiesce hook on a simulation process (it may block on
   virtual time). *)
let quiesce_in e (kv : Kv.t) =
  Engine.spawn e (fun () -> kv.Kv.quiesce ());
  ignore (Engine.run e)

(* Device counters come from the engine's metric registry, under the
   store's sanitized name prefix (see Kv.stat_prefix). *)
let ssd_written e (kv : Kv.t) =
  Stats.get_int (Engine.stats e) (kv.Kv.stat_prefix ^ ".device.ssd.bytes_written")

(* --stats / --stats-json: harvest each labelled run's registry. *)
let stats_requested = ref false

let stats_json_path : string option ref = ref None

let collected_stats : (string * string) list ref = ref []

(* Harvesting is split so fleet cells can capture the registry on the
   worker and the coordinator can emit it in deterministic cell order. *)
let harvest_blob label e =
  if !stats_requested || !stats_json_path <> None then Some (label, Engine.stats e)
  else None

let emit_harvest = function
  | None -> ()
  | Some (label, reg) ->
      Stats.register_gc reg;
      collected_stats := (label, Stats.to_json reg) :: !collected_stats;
      if !stats_requested then Format.printf "  [%s registry]@.%a@." label Stats.pp reg

let harvest label e = emit_harvest (harvest_blob label e)

let write_collected_stats () =
  match !stats_json_path with
  | None -> ()
  | Some path ->
      Json.write path
        (Json.Obj
           (List.rev_map (fun (label, json) -> (label, Json.Raw json))
              !collected_stats));
      pf "wrote metric registries to %s\n" path

(* Run LOAD then the listed mixes against one store; returns
   (load_result, per-mix results). *)
let ycsb_suite ?(mixes = Ycsb.all_ycsb) e kv s =
  let kv = Kv.instrument e kv in
  let load = Runner.load e kv s in
  let results =
    List.map
      (fun mix ->
        let r = Runner.run e kv mix s in
        quiesce_in e kv;
        r)
      mixes
  in
  (load, results)

let kops r = Report.kops r.Runner.kops

let avg_us r = Printf.sprintf "%.1f" (Hist.mean r.Runner.latency /. 1e3)

let p50_us r = Printf.sprintf "%.1f" (Hist.to_us (Hist.median r.Runner.latency))

let p99_us r =
  Printf.sprintf "%.1f" (Hist.to_us (Hist.percentile r.Runner.latency 99.0))

let lat_row name r = [ name; avg_us r; p50_us r; p99_us r ]

(* The throughput table of (name, LOAD, per-mix results) rows, then a
   latency table for each of YCSB-A, C and E. *)
let suite_tables ~throughput ~latency all =
  Report.table ~title:throughput
    ~columns:[ "Store"; "LOAD"; "A"; "B"; "C"; "D"; "E" ]
    (List.map
       (fun (name, load, results) -> name :: kops load :: List.map kops results)
       all);
  List.iter
    (fun wanted ->
      Report.table
        ~title:(Printf.sprintf "%s — Latency (us), YCSB-%s" latency wanted)
        ~columns:[ "Store"; "Average"; "Median"; "99%" ]
        (List.filter_map
           (fun (name, _, results) ->
             List.find_opt (fun r -> r.Runner.workload = wanted) results
             |> Option.map (lat_row name))
           all))
    [ "A"; "C"; "E" ]

(* One fresh Prism per (name, config tweak) variant: LOAD then [mixes],
   as a row of throughputs followed by [extra store]. *)
let prism_variant_rows ?(extra = fun _ -> []) ~mixes s variants =
  List.map
    (fun (name, tweak) ->
      let e = Engine.create () in
      let kv, store = Setup.prism e s ~tweak in
      let load, results = ycsb_suite ~mixes e kv s in
      pf "  %s done\n%!" name;
      (name :: kops load :: List.map kops results) @ extra store)
    variants

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
  let names = [| "Prism"; "KVell"; "MatrixKV"; "RocksDB-NVM" |] in
  let all =
    fleet_map (Array.length names) (fun i ->
        let name = names.(i) in
        let e = Engine.create () in
        let kv = Setup.of_name name s e in
        let load, results = ycsb_suite e kv s in
        (name, load, results, harvest_blob ("fig7." ^ Stats.sanitize name) e))
    |> Array.to_list
    |> List.map (fun (name, load, results, blob) ->
           emit_harvest blob;
           pf "  %s done\n%!" name;
           (name, load, results))
  in
  suite_tables ~throughput:"Throughput (kops/s; workload E in kops/s of scans)"
    ~latency:"Table 3" all

(* ---------------------------------------------------------------- *)
(* Figure 8 + Table 4: Prism vs SLM-DB (single thread, reduced set)   *)
(* ---------------------------------------------------------------- *)

let fig8 () =
  let s =
    {
      !scenario with
      Setup.records = !scenario.Setup.records / 4;
      threads = 1;
      ops = !scenario.Setup.ops / 4;
      scan_ops = !scenario.Setup.scan_ops / 4;
    }
  in
  Report.section
    (Printf.sprintf "Figure 8 + Table 4: Prism vs SLM-DB (1 thread, %d keys)"
       s.Setup.records);
  let makers =
    [
      ( "Prism",
        fun e ->
          (* The paper shrinks Prism's SVC/PWB to SLM-DB's footprint. *)
          fst
            (Setup.prism e s
               ~tweak:(fun cfg ->
                 {
                   cfg with
                   Prism_core.Config.svc_capacity = 64 * 1024;
                   pwb_size = 64 * 1024;
                   nvm_size =
                     (64 * 1024) + (cfg.Prism_core.Config.hsit_capacity * 16)
                     + (4 * 1024 * 1024);
                 })) );
      ("SLM-DB", fun e -> Setup.slmdb e s);
    ]
  in
  let all =
    List.map
      (fun (name, make) ->
        let e = Engine.create () in
        let kv = make e in
        let load, results = ycsb_suite e kv s in
        (name, load, results))
      makers
  in
  suite_tables ~throughput:"Throughput (kops/s)" ~latency:"Table 4" all

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
  (* One loaded store per (store, theta) cell — the skew affects the run
     phase — so every cell is an independent simulation, farmed out. *)
  let cells =
    List.concat_map
      (fun name ->
        let s =
          if name = "SLM-DB" then
            {
              s with
              Setup.threads = 1;
              records = s.Setup.records / 4;
              ops = s.Setup.ops / 4;
              scan_ops = s.Setup.scan_ops / 4;
            }
          else s
        in
        List.map (fun theta -> (name, { s with Setup.theta })) thetas)
      names
    |> Array.of_list
  in
  let cell_rows =
    fleet_map (Array.length cells) (fun i ->
        let name, s = cells.(i) in
        let e = Engine.create () in
        let kv = Setup.of_name name s e in
        ignore (Runner.load e kv s);
        List.map
          (fun mix ->
            let r = Runner.run e kv mix s in
            quiesce_in e kv;
            r.Runner.kops)
          Ycsb.all_ycsb)
  in
  let nthetas = List.length thetas in
  List.iteri
    (fun mi name ->
      let rows =
        List.mapi (fun ti _ -> cell_rows.((mi * nthetas) + ti)) thetas
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
      pf "  %s done\n%!" name)
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
  let rows =
    List.map
      (fun name ->
        let e = Engine.create () in
        let _, results = ycsb_suite e (Setup.of_name name s e) s in
        name :: List.map kops results)
      [ "Prism"; "KVell" ]
  in
  Report.table ~title:"Throughput (kops/s)"
    ~columns:[ "Store"; "A"; "B"; "C"; "D"; "E" ]
    rows

let fig10b () =
  let s = !scenario in
  Report.section "Figure 10b: Nutanix production mix (57% upd / 41% read / 2% scan)";
  let rows =
    List.map
      (fun name ->
        let e = Engine.create () in
        let kv = Setup.of_name name s e in
        ignore (Runner.load e kv s);
        [ name; kops (Runner.run e kv Ycsb.nutanix s) ])
      [ "Prism"; "KVell" ]
  in
  Report.table ~title:"Throughput (kops/s)" ~columns:[ "Store"; "Nutanix" ] rows

(* ---------------------------------------------------------------- *)
(* Figure 11: thread combining vs timeout batching, queue-depth sweep *)
(* ---------------------------------------------------------------- *)

let fig11 () =
  let s = !scenario in
  Report.section "Figure 11: opportunistic thread combining (TC) vs timeout IO (TA), YCSB-C";
  let depths = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let run_one ~tc qd =
    let e = Engine.create () in
    let kv, _ =
      Setup.prism e s ~tweak:(fun cfg ->
          {
            cfg with
            Prism_core.Config.queue_depth = qd;
            use_thread_combining = tc;
            (* Shrink the SVC so reads actually reach the SSD. *)
            svc_capacity = 256 * 1024;
          })
    in
    ignore (Runner.load e kv s);
    Runner.run e kv Ycsb.ycsb_c s
  in
  let rows =
    List.map
      (fun qd ->
        let tc = run_one ~tc:true qd in
        let ta = run_one ~tc:false qd in
        pf "  QD %d done\n%!" qd;
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
  (* Every (value size, store, theta) cell is an independent loaded
     store, so the whole grid is farmed as one flat job list. *)
  let cells =
    List.concat_map
      (fun value_size ->
        let s =
          {
            base with
            Setup.value_size;
            records = base.Setup.records / 2;
            ops = base.Setup.ops * 2;
          }
        in
        List.concat_map
          (fun name ->
            List.map (fun theta -> (name, { s with Setup.theta })) thetas)
          store_names)
      value_sizes
    |> Array.of_list
  in
  let waf =
    fleet_map (Array.length cells) (fun i ->
        let name, s = cells.(i) in
        let e = Engine.create () in
        let kv = Setup.of_name name s e in
        ignore (Runner.load e kv s);
        quiesce_in e kv;
        let before = ssd_written e kv in
        let update_only = { Ycsb.ycsb_a with reads = 0.0; updates = 1.0 } in
        let r = Runner.run e kv update_only s in
        quiesce_in e kv;
        let written = ssd_written e kv - before in
        let app = r.Runner.ops * s.Setup.value_size in
        Printf.sprintf "%.2f" (float_of_int written /. float_of_int app))
  in
  let nthetas = List.length thetas in
  let per_store = List.length store_names * nthetas in
  List.iteri
    (fun vi value_size ->
      let rows =
        List.mapi
          (fun si name ->
            name
            :: List.mapi
                 (fun ti _ -> waf.((vi * per_store) + (si * nthetas) + ti))
                 thetas)
          store_names
      in
      Report.table
        ~title:(Printf.sprintf "SSD-level WAF, %dB values" value_size)
        ~columns:[ "Store"; "Zipf 0.5"; "Zipf 0.99"; "Zipf 1.2" ]
        rows;
      pf "  %dB done\n%!" value_size)
    value_sizes

(* ---------------------------------------------------------------- *)
(* Figures 13/14: scaling the number of SSDs                          *)
(* ---------------------------------------------------------------- *)

let fig13_14 () =
  let base = !scenario in
  Report.section "Figures 13/14: throughput and latency vs number of SSDs";
  let ssd_counts = [ 1; 2; 4; 8 ] in
  let run name mix =
    List.map
      (fun num_ssds ->
        let s = { base with Setup.num_ssds } in
        let e = Engine.create () in
        let kv = Setup.of_name name s e in
        ignore (Runner.load e kv s);
        let r = Runner.run e kv mix s in
        pf "  %s %s %dssd done\n%!" name mix.Ycsb.name num_ssds;
        r)
      ssd_counts
  in
  List.iter
    (fun mix ->
      let prism = run "Prism" mix in
      let kvell = run "KVell" mix in
      Report.table
        ~title:(Printf.sprintf "Figure 13 — Throughput (kops/s), YCSB-%s" mix.Ycsb.name)
        ~columns:("Store" :: List.map (fun n -> Printf.sprintf "%d SSD" n) ssd_counts)
        [
          "Prism" :: List.map kops prism;
          "KVell" :: List.map kops kvell;
        ];
      if mix.Ycsb.name = "C" then begin
        List.iter
          (fun (title, f) ->
            Report.table
              ~title:(Printf.sprintf "Figure 14 — %s latency (us), YCSB-C" title)
              ~columns:
                ("Store" :: List.map (fun n -> Printf.sprintf "%d SSD" n) ssd_counts)
              [
                "Prism" :: List.map f prism;
                "KVell" :: List.map f kvell;
              ])
          [ ("Average", avg_us); ("Median", p50_us); ("99%", p99_us) ]
      end)
    [ Ycsb.ycsb_a; Ycsb.ycsb_c ]

(* ---------------------------------------------------------------- *)
(* Figure 15: PWB and SVC size sweeps                                 *)
(* ---------------------------------------------------------------- *)

let fig15 () =
  let s = !scenario in
  Report.section "Figure 15: impact of PWB and SVC sizes";
  let dataset = Setup.dataset_bytes s in
  (* (a) PWB sweep on LOAD and A. *)
  let pwb_fracs = [ 0.05; 0.10; 0.20; 0.40 ] in
  let rows =
    List.map
      (fun frac ->
        let pwb =
          Prism_sim.Bits.round_up
            (max 8192
               (int_of_float (float_of_int dataset *. frac) / s.Setup.threads))
            16
        in
        let e = Engine.create () in
        let kv, _ =
          Setup.prism e s ~tweak:(fun cfg ->
              {
                cfg with
                Prism_core.Config.pwb_size = pwb;
                nvm_size =
                  (s.Setup.threads * pwb)
                  + (cfg.Prism_core.Config.hsit_capacity * 16)
                  + (8 * 1024 * 1024);
              })
        in
        let load = Runner.load e kv s in
        let a = Runner.run e kv Ycsb.ycsb_a s in
        pf "  pwb %.0f%% done\n%!" (frac *. 100.0);
        [
          Printf.sprintf "%.0f%% of dataset" (frac *. 100.0);
          kops load;
          kops a;
        ])
      pwb_fracs
  in
  Report.table ~title:"(a) throughput vs total PWB size"
    ~columns:[ "PWB total"; "LOAD"; "A" ]
    rows;
  (* (b) SVC sweep on C and E. *)
  let svc_fracs = [ 0.04; 0.10; 0.20; 0.40 ] in
  let rows =
    List.map
      (fun frac ->
        let svc = max 65536 (int_of_float (float_of_int dataset *. frac)) in
        let e = Engine.create () in
        let kv, _ =
          Setup.prism e s ~tweak:(fun cfg ->
              { cfg with Prism_core.Config.svc_capacity = svc })
        in
        ignore (Runner.load e kv s);
        let c = Runner.run e kv Ycsb.ycsb_c s in
        let ey = Runner.run e kv Ycsb.ycsb_e s in
        pf "  svc %.0f%% done\n%!" (frac *. 100.0);
        [ Printf.sprintf "%.0f%% of dataset" (frac *. 100.0); kops c; kops ey ])
      svc_fracs
  in
  Report.table ~title:"(b) throughput vs SVC size"
    ~columns:[ "SVC"; "C"; "E" ]
    rows

(* ---------------------------------------------------------------- *)
(* Figure 16: multicore scalability                                   *)
(* ---------------------------------------------------------------- *)

let fig16 () =
  let base = !scenario in
  Report.section "Figure 16: multicore scalability";
  let thread_counts = [ 4; 8; 16; 32 ] in
  let run make mix threads =
    let s = { base with Setup.threads } in
    let e = Engine.create () in
    let kv : Kv.t = make s e in
    ignore (Runner.load e kv s);
    (Runner.run e kv mix s).Runner.kops
  in
  let stores =
    [
      ("Prism", fun s e -> fst (Setup.prism e s));
      ("KVell(QD64)", fun s e -> Setup.kvell ~queue_depth:64 e s);
      ("KVell(QD1)", fun s e -> Setup.kvell ~queue_depth:1 e s);
      ("MatrixKV", fun s e -> Setup.matrixkv e s);
    ]
  in
  List.iter
    (fun mix ->
      let rows =
        List.map
          (fun (name, make) ->
            let cells =
              List.map
                (fun threads -> Report.kops (run make mix threads))
                thread_counts
            in
            pf "  %s %s done\n%!" name mix.Ycsb.name;
            name :: cells)
          stores
      in
      Report.table
        ~title:(Printf.sprintf "Throughput vs threads, YCSB-%s" mix.Ycsb.name)
        ~columns:
          ("Store" :: List.map (fun t -> Printf.sprintf "%d thr" t) thread_counts)
        rows)
    [ Ycsb.ycsb_a; Ycsb.ycsb_c; Ycsb.ycsb_e ]

(* ---------------------------------------------------------------- *)
(* Figure 17: garbage collection impact timeline                      *)
(* ---------------------------------------------------------------- *)

let fig17 () =
  let base = !scenario in
  Report.section "Figure 17: throughput timeline across Value Storage GC (YCSB-A)";
  (* Small Value Storage so GC must run during the workload. *)
  let s = { base with Setup.ops = base.Setup.ops * 3 } in
  let e = Engine.create () in
  let kv, store =
    Setup.prism e s ~tweak:(fun cfg ->
        let dataset = Setup.dataset_bytes s in
        let chunk = cfg.Prism_core.Config.chunk_size in
        {
          cfg with
          Prism_core.Config.vs_size =
            Prism_sim.Bits.round_up
              (max (8 * chunk) (dataset * 2 / cfg.num_value_storages))
              chunk;
        })
  in
  ignore (Runner.load e kv s);
  (* Registered in the engine registry, so --stats-json exports the full
     per-window series under "bench.throughput". *)
  let tl = Stats.timeline (Engine.stats e) "bench.throughput" ~interval:1e-3 in
  let gc_before = Prism_core.Store.gc_runs store in
  ignore (Runner.run ~timeline:tl e kv Ycsb.ycsb_a s);
  let gc_after = Prism_core.Store.gc_runs store in
  harvest "fig17.prism" e;
  Report.table
    ~title:
      (Printf.sprintf "ops per 1ms window (GC passes during run: %d)"
         (gc_after - gc_before))
    ~columns:[ "t (ms)"; "kops/s" ]
    (Metric.Timeline.windows tl
    |> List.map (fun (t, count, _) ->
           [
             Printf.sprintf "%.0f" (t *. 1e3);
             Printf.sprintf "%.0f" (float_of_int count /. 1e-3 /. 1e3);
           ]))

(* ---------------------------------------------------------------- *)
(* Ablations (§7.6 "impact of individual techniques")                 *)
(* ---------------------------------------------------------------- *)

let ablation () =
  let s = !scenario in
  Report.section "Ablation: impact of individual techniques (§7.6)";
  let variants =
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
  Report.table ~title:"Throughput (kops/s)"
    ~columns:[ "Variant"; "LOAD"; "A"; "C"; "E" ]
    (prism_variant_rows ~mixes:[ Ycsb.ycsb_a; Ycsb.ycsb_c; Ycsb.ycsb_e ] s
       variants)

(* ---------------------------------------------------------------- *)
(* Key Index independence (§4.1/§6: "Prism can replace it with any
   other range index")                                                 *)
(* ---------------------------------------------------------------- *)

let index_exp () =
  let s = !scenario in
  Report.section "Key Index independence: B+-tree vs Adaptive Radix Tree";
  let rows =
    prism_variant_rows ~mixes:[ Ycsb.ycsb_a; Ycsb.ycsb_c; Ycsb.ycsb_e ] s
      ~extra:(fun store ->
        [
          Printf.sprintf "%.1f MB"
            (float_of_int (Prism_core.Store.nvm_index_bytes store) /. 1048576.0);
        ])
      (List.map
         (fun (name, impl) ->
           (name, fun cfg -> { cfg with Prism_core.Config.key_index = impl }))
         [ ("B+-tree", `Btree); ("ART", `Art) ])
  in
  Report.table ~title:"Throughput (kops/s) and index NVM footprint"
    ~columns:[ "Index"; "LOAD"; "A"; "C"; "E"; "NVM footprint" ]
    rows

(* ---------------------------------------------------------------- *)
(* Discussion (§8): emerging media — CXL persistent memory            *)
(* ---------------------------------------------------------------- *)

let discussion () =
  let s = !scenario in
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
  Report.table ~title:"Prism throughput with different buffer media (kops/s)"
    ~columns:[ "Buffer medium"; "LOAD"; "A"; "C" ]
    (prism_variant_rows ~mixes:[ Ycsb.ycsb_a; Ycsb.ycsb_c ] s
       (List.map
          (fun (name, spec) ->
            (name, fun cfg -> { cfg with Prism_core.Config.nvm_spec = spec }))
          media))

(* ---------------------------------------------------------------- *)
(* NVM space (§7.6)                                                   *)
(* ---------------------------------------------------------------- *)

let nvmspace () =
  let s = !scenario in
  Report.section "NVM space: Key Index + HSIT footprint (§7.6)";
  let e = Engine.create () in
  let kv, store = Setup.prism e s in
  ignore (Runner.load e kv s);
  let bytes = Prism_core.Store.nvm_index_bytes store in
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
  (* Prism: load, crash, measure recover. *)
  let e = Engine.create () in
  let kv, store = Setup.prism e s in
  ignore (Runner.load e kv s);
  Engine.clear_pending e;
  Prism_core.Store.crash store;
  let t0 = ref nan and t1 = ref nan and recovered = ref 0 in
  Engine.spawn e (fun () ->
      t0 := Engine.now e;
      recovered := Prism_core.Store.recover store;
      t1 := Engine.now e);
  ignore (Engine.run e);
  let prism_time = !t1 -. !t0 in
  (* KVell: load, measure its full-scan recovery. *)
  let e = Engine.create () in
  let kv = Setup.kvell e s in
  ignore (Runner.load e kv s);
  let kvell_time =
    match Runner.recovery_time e kv with Some t -> t | None -> nan
  in
  Report.table ~title:""
    ~columns:[ "Store"; "Recovered keys"; "Virtual time (ms)" ]
    [
      [ "Prism"; string_of_int !recovered; Printf.sprintf "%.2f" (prism_time *. 1e3) ];
      [ "KVell"; string_of_int s.Setup.records; Printf.sprintf "%.2f" (kvell_time *. 1e3) ];
    ]

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
    (fun name ->
      if not (List.mem_assoc name experiments) then
        pf "warning: unknown experiment %S (available: %s)\n" name
          (String.concat " " (List.map fst experiments)))
    names;
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
    Arg.(value & opt_all string [] & info [ "exp" ] ~doc:"Run one experiment (repeatable). Available: fig1 fig7 fig8 fig9 fig10a fig10b fig11 fig12 fig13 fig15 fig16 fig17 ablation nvmspace recovery")
  in
  let scale =
    Arg.(value & opt string "small" & info [ "scale" ] ~doc:"small or full")
  in
  let main () exp scale stats stats_json j =
    (match scale with
    | "full" -> scenario := full_scenario
    | "small" -> scenario := small_scenario
    | other -> failwith ("unknown scale: " ^ other));
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
