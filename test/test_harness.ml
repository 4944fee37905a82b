(* Tests for the experiment harness: runner phases, equal-cost setups,
   report rendering, and a miniature end-to-end experiment sanity check
   (the ordering claims the paper's figures rest on). *)

open Prism_sim
open Prism_harness
open Helpers

let tiny =
  {
    Setup.default_scenario with
    records = 1200;
    ops = 1200;
    scan_ops = 150;
    threads = 4;
    num_ssds = 2;
  }

let test_setup_scenario_sizes () =
  Alcotest.(check int) "dataset" (tiny.records * tiny.value_size)
    (Setup.dataset_bytes tiny)

let test_load_phase_runs () =
  let e = Engine.create () in
  let kv, store = Setup.prism e tiny in
  let r = Runner.load e kv tiny in
  Alcotest.(check int) "all inserted" tiny.records r.Runner.ops;
  Alcotest.(check bool) "positive throughput" true (r.Runner.kops > 0.0);
  Alcotest.(check int) "latencies recorded" tiny.records
    (Hist.count r.Runner.latency);
  Alcotest.(check int) "store agrees" tiny.records
    (Prism_core.Store.length store)

let test_run_phase_measures () =
  let e = Engine.create () in
  let kv, _ = Setup.prism e tiny in
  ignore (Runner.load e kv tiny);
  let r = Runner.run e kv Prism_workload.Ycsb.ycsb_a tiny in
  Alcotest.(check string) "workload name" "A" r.Runner.workload;
  Alcotest.(check bool) "ops ran" true (r.Runner.ops > 0);
  Alcotest.(check bool) "time advanced" true (r.Runner.elapsed > 0.0)

let test_runner_timeline () =
  let e = Engine.create () in
  let kv, _ = Setup.prism e tiny in
  ignore (Runner.load e kv tiny);
  let tl = Metric.Timeline.create ~interval:1e-3 in
  ignore (Runner.run ~timeline:tl e kv Prism_workload.Ycsb.ycsb_c tiny);
  let total =
    List.fold_left (fun acc (_, c, _) -> acc + c) 0 (Metric.Timeline.windows tl)
  in
  Alcotest.(check bool) "ticks recorded" true (total > 0)

let test_all_contenders_complete_a_mix () =
  let e = Engine.create () in
  let contenders =
    List.map
      (fun name -> Setup.of_name name tiny e)
      [ "prism"; "kvell"; "matrixkv"; "rocksdb-nvm" ]
  in
  Alcotest.(check int) "four systems" 4 (List.length contenders);
  List.iter
    (fun kv ->
      let r = Runner.load e kv tiny in
      Alcotest.(check bool)
        (kv.Kv.name ^ " load throughput")
        true (r.Runner.kops > 0.0);
      let r = Runner.run e kv Prism_workload.Ycsb.ycsb_a tiny in
      Alcotest.(check bool) (kv.Kv.name ^ " A throughput") true (r.Runner.kops > 0.0))
    contenders

let test_kvell_recovery_hook () =
  let e = Engine.create () in
  let kv = Setup.kvell e tiny in
  ignore (Runner.load e kv tiny);
  match Runner.recovery_time e kv with
  | Some t -> Alcotest.(check bool) "positive recovery time" true (t > 0.0)
  | None -> Alcotest.fail "KVell should expose recovery"

let test_prism_beats_lsm_on_load () =
  (* The one ordering every figure depends on: Prism's write path beats
     the compaction-bound LSMs on pure inserts. *)
  let scenario = { tiny with records = 4000 } in
  let run_store make =
    let e = Engine.create () in
    let kv = make e in
    (Runner.load e kv scenario).Runner.kops
  in
  let prism = run_store (fun e -> fst (Setup.prism e scenario)) in
  let rocks = run_store (fun e -> Setup.rocksdb_nvm e scenario) in
  let matrix = run_store (fun e -> Setup.matrixkv e scenario) in
  Alcotest.(check bool) "prism > rocksdb-nvm on LOAD" true (prism > rocks);
  Alcotest.(check bool) "prism > matrixkv on LOAD" true (prism > matrix)

let test_simulation_deterministic () =
  (* Two identical simulations must produce bit-identical results: same
     virtual duration, same event count, same latency histogram. *)
  let run () =
    let e = Engine.create () in
    let kv, _ = Setup.prism e tiny in
    let load = Runner.load e kv tiny in
    let a = Runner.run e kv Prism_workload.Ycsb.ycsb_a tiny in
    ( load.Runner.elapsed,
      a.Runner.elapsed,
      Engine.events_executed e,
      Hist.percentile a.Runner.latency 99.0,
      Hist.count a.Runner.latency )
  in
  let first = run () in
  let second = run () in
  Alcotest.(check bool) "bit-identical reruns" true (first = second)

(* The telemetry invariant the whole layer rests on: wrapping a store in
   [Kv.instrument] (with span collection enabled) only reads the virtual
   clock, so an instrumented run is bit-identical to a bare one — same
   virtual durations, same event count, same latency histograms. *)
let run_with_instrumentation make ~instrumented =
  let e = Engine.create () in
  let kv = make e in
  let kv =
    if instrumented then begin
      Span.set_enabled (Engine.spans e) true;
      Span.set_keep_events (Engine.spans e) true;
      Kv.instrument e kv
    end
    else kv
  in
  let load = Runner.load e kv tiny in
  let a = Runner.run e kv Prism_workload.Ycsb.ycsb_a tiny in
  (load, a, Engine.events_executed e)

let check_instrumentation_inert name make =
  let bare = run_with_instrumentation make ~instrumented:false in
  let wrapped = run_with_instrumentation make ~instrumented:true in
  Alcotest.(check bool) (name ^ ": instrumented run bit-identical") true
    (bare = wrapped)

let test_instrumentation_inert_prism () =
  check_instrumentation_inert "prism" (fun e -> fst (Setup.prism e tiny))

let test_instrumentation_inert_lsm () =
  check_instrumentation_inert "rocksdb-nvm" (fun e -> Setup.rocksdb_nvm e tiny)

let test_registry_covers_subsystems () =
  let e = Engine.create () in
  let kv, _ = Setup.prism e tiny in
  let kv = Kv.instrument e kv in
  ignore (Runner.load e kv tiny);
  ignore (Runner.run e kv Prism_workload.Ycsb.ycsb_a tiny);
  let reg = Engine.stats e in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Stats.find reg name <> None))
    [
      "prism.ops.puts";
      "prism.svc.hits";
      "prism.pwb.hits";
      "prism.tcq.batches";
      "prism.vs_gc.runs";
      "prism.device.ssd.waf";
      "prism.device.nvm.bytes_written";
      "kv.prism.put.latency";
      "kv.prism.get.latency";
    ];
  (* Every put went through the middleware, so the registry's counter and
     the middleware's histogram must agree exactly. *)
  Alcotest.(check bool) "puts counted" true
    (Stats.get_int reg "prism.ops.puts" >= tiny.records);
  Alcotest.(check int) "middleware saw every put"
    (Stats.get_int reg "prism.ops.puts")
    (Stats.get_int reg "kv.prism.put.latency");
  Alcotest.(check bool) "ssd bytes surface through the registry" true
    (Stats.get_int reg "prism.device.ssd.bytes_written" > 0)

let test_different_seeds_differ () =
  let run seed =
    let e = Engine.create () in
    let s = { tiny with Setup.seed } in
    let kv, _ = Setup.prism e s in
    (Runner.run e kv Prism_workload.Ycsb.ycsb_a s).Runner.elapsed
  in
  Alcotest.(check bool) "seed changes the run" true
    (run 1L <> run 2L)

(* Golden bits of LOAD, A, E (which runs [scan_ops]) and a KVell
   calibration: any change to the phases' key streams, op counts or
   client layout moves them, and with them every figure. *)
let test_golden_phases () =
  let show (r : Runner.result) =
    Printf.sprintf "%s/%s ops=%d elapsed=%h p50=%h p99=%h n=%d" r.Runner.store
      r.Runner.workload r.Runner.ops r.Runner.elapsed
      (Hist.quantile r.Runner.latency 50.0)
      (Hist.quantile r.Runner.latency 99.0)
      (Hist.count r.Runner.latency)
  in
  let e = Engine.create () in
  let kv = Kv.instrument e (fst (Setup.prism e tiny)) in
  let load = Runner.load e kv tiny in
  let a = Runner.run e kv Prism_workload.Ycsb.ycsb_a tiny in
  let scans = Runner.run e kv Prism_workload.Ycsb.ycsb_e tiny in
  let cal =
    Runner.calibrate ~ops:600 (fun e -> Setup.kvell e tiny)
      Prism_workload.Ycsb.ycsb_b tiny
  in
  Alcotest.(check string) "phases"
    "Prism/LOAD ops=1200 elapsed=0x1.8ac93107d2a2ap-11 \
     p50=0x1.1144ef4c39176p+11 p99=0x1.3dp+11 n=1200\n\
     Prism/A ops=1200 elapsed=0x1.62d4ccbe113bcp-9 p50=0x1.98b37e875b37fp+10 \
     p99=0x1.9ap+15 n=1200\n\
     Prism/E ops=148 elapsed=0x1.6fac7d73cb7bep-9 p50=0x1.44p+15 \
     p99=0x1.950a3d70a3d71p+17 n=148\n\
     KVell/B ops=600 elapsed=0x1.240cc6729501ep-8 p50=0x1.d692492492492p+9 \
     p99=0x1.988p+16 n=600\n\
     110560"
    (String.concat "\n"
       [
         show load; show a; show scans; show cal;
         string_of_int (Engine.events_executed e);
       ])

(* The shared command-line terms, parsed from explicit argv vectors. *)
let parse term args =
  let open Cmdliner in
  match
    Cmd.eval_value ~argv:(Array.of_list ("t" :: args)) (Cmd.v (Cmd.info "t") term)
  with
  | Ok (`Ok v) -> Some v
  | _ -> None

let test_cli_scenario_overrides () =
  let open Prism_cli in
  let term =
    Cli.scenario ~threads:("servers", "servers") ~ops:"ops"
  in
  let s =
    Option.get (parse term [ "--records"; "10"; "--servers"; "3"; "--seed"; "7" ])
      tiny
  in
  Alcotest.(check (list int)) "overridden" [ 10; 3; tiny.ops ]
    [ s.records; s.threads; s.ops ];
  Alcotest.(check int64) "seed" 7L s.seed;
  Alcotest.(check bool) "absent flags keep the base" true
    (Option.get (parse term []) tiny = tiny)

let test_cli_shared_terms () =
  let open Prism_cli in
  Alcotest.(check (option int)) "jobs 0 means per core"
    (Some (Prism_fleet.Fleet.default_jobs ()))
    (parse Cli.jobs [ "-j"; "0" ]);
  Alcotest.(check (option int)) "jobs floor" (Some 1) (parse Cli.jobs [ "--jobs=-4" ]);
  Alcotest.(check (option string)) "mix by name" (Some "E")
    (Option.map (fun m -> m.Prism_workload.Ycsb.name) (parse (Cli.mix "a") [ "--mix"; "e" ]));
  Alcotest.(check bool) "unknown mix rejected" true
    (parse (Cli.mix "a") [ "--mix"; "zz" ] = None);
  Alcotest.(check (option (option (list (float 0.0))))) "csv"
    (Some (Some [ 0.5; 1.5 ]))
    (parse (Cli.csv Cmdliner.Arg.float "points" ~doc:"") [ "--points"; "0.5,1.5" ]);
  Alcotest.(check bool) "placement" true
    (parse Cli.placement [ "--placement"; "hotness" ] = Some `Hotness)

let test_report_table_renders () =
  (* Smoke: must not raise, regardless of jagged rows. *)
  Report.section "test";
  Report.table ~title:"t" ~columns:[ "a"; "b" ]
    [ [ "x"; "1" ]; [ "yy"; "22" ] ];
  Alcotest.(check string) "kops formatting" "1.50M" (Report.kops 1500.0);
  Alcotest.(check string) "kops small" "12.3k" (Report.kops 12.3);
  Alcotest.(check string) "ratio" "2.00x" (Report.ratio 2.0)

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          case "scenario sizes" test_setup_scenario_sizes;
          case "load phase" test_load_phase_runs;
          case "run phase" test_run_phase_measures;
          case "timeline" test_runner_timeline;
        ] );
      ( "setups",
        [
          case "all contenders" test_all_contenders_complete_a_mix;
          case "kvell recovery" test_kvell_recovery_hook;
          case "prism beats lsm on load" test_prism_beats_lsm_on_load;
        ] );
      ( "determinism",
        [
          case "identical reruns" test_simulation_deterministic;
          case "seeds differ" test_different_seeds_differ;
          case "instrumentation inert (prism)" test_instrumentation_inert_prism;
          case "instrumentation inert (lsm)" test_instrumentation_inert_lsm;
          case "golden phases" test_golden_phases;
        ] );
      ( "telemetry",
        [ case "registry covers subsystems" test_registry_covers_subsystems ] );
      ( "report", [ case "table renders" test_report_table_renders ] );
      ( "cli",
        [
          case "scenario overrides" test_cli_scenario_overrides;
          case "shared terms" test_cli_shared_terms;
        ] );
    ]
