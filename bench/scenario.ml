(* bench/scenario: the time-varying scenario suite with pass/fail
   telemetry verdicts.

   For each (scenario, store) pair: calibrate the store's closed-loop
   capacity, scale the scenario's unit phase length so its expected
   arrival count meets the op budget at that capacity, synthesize the
   timed trace, replay it open-loop, and evaluate the scenario's
   assertions against the windowed telemetry.

     dune exec bench/scenario.exe --                    full suite
     dune exec bench/scenario.exe -- --quick            CI-sized
     dune exec bench/scenario.exe -- --list             name the suite
     dune exec bench/scenario.exe -- --scenarios flash-crowd \
         --stores prism,kvell --json scenario.json --strict

   Everything is virtual time: a given --seed reproduces every verdict —
   and the JSON — byte-identically. *)

open Prism_sim
open Prism_harness
open Prism_scenario
open Prism_cli

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = {
  stores : string list;
  scenarios : string list;
  policy : string;
  s : Setup.scenario; (* threads = servers; ops = arrival budget per run *)
  cal_ops : int; (* closed-loop calibration ops *)
}

let default_config =
  {
    stores = [ "prism"; "kvell"; "rocksdb-nvm" ];
    scenarios = Library.names;
    policy = "bounded";
    s =
      { Setup.default_scenario with records = 8_000; threads = 16; ops = 12_000 };
    cal_ops = 6_000;
  }

let quick_config =
  {
    default_config with
    stores = [ "prism"; "kvell" ];
    scenarios = [ "flash-crowd" ];
    s = { default_config.s with records = 4_000; threads = 8; ops = 6_000 };
    cal_ops = 5_000;
  }

(* ---------------------------------------------------------------- *)
(* One (scenario, store) run                                         *)
(* ---------------------------------------------------------------- *)

let run_one cfg ~ename ~store =
  let entry =
    match Library.find ename with
    | Some e -> e
    | None -> failwith ("unknown scenario: " ^ ename)
  in
  let make = Setup.of_name store cfg.s in
  let e = Engine.create () in
  Library.run entry ~make e (Kv.instrument e (make e)) cfg.s
    ~servers:cfg.s.threads ~policy:cfg.policy ~cal_ops:cfg.cal_ops
    ~seed_key:store

let scenario_name (r : Library.run) = r.outcome.Scenario.spec.Scenario.sname
let store_name (r : Library.run) = r.outcome.Scenario.store
let run_pass (r : Library.run) = Assertion.passed r.verdicts

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

let qs h p = Hist.us_of_ns (Hist.quantile h p)

let print_run (r : Library.run) =
  let o = r.outcome in
  Report.table
    ~title:
      (Printf.sprintf "%s / %s — %s, capacity %.0f ops/s" (scenario_name r)
         (store_name r) o.Scenario.policy r.capacity)
    ~columns:
      [
        "phase"; "span s"; "offered"; "shed"; "completed"; "p50 us"; "p99 us";
      ]
    (Array.to_list
       (Array.map
          (fun ps ->
            [
              ps.Scenario.ps_name;
              Printf.sprintf "%.2f-%.2f" ps.Scenario.ps_start
                ps.Scenario.ps_end;
              string_of_int ps.Scenario.ps_offered;
              string_of_int
                (ps.Scenario.ps_shed_admission + ps.Scenario.ps_shed_dequeue);
              string_of_int ps.Scenario.ps_completed;
              Printf.sprintf "%.1f" (qs ps.Scenario.ps_sojourn 50.0);
              Printf.sprintf "%.1f" (qs ps.Scenario.ps_sojourn 99.0);
            ])
          o.Scenario.phases));
  Assertion.print_verdicts r.checks r.verdicts;
  pf "\n"

(* prism-scenario-v1: fixed member order and float formats, so the same
   seed writes byte-identical output. *)
let json_of_runs cfg runs =
  let open Json in
  let phase ps =
    Row
      [
        ("name", Str ps.Scenario.ps_name);
        ("start_s", fixed 6 ps.Scenario.ps_start);
        ("end_s", fixed 6 ps.Scenario.ps_end);
        ("offered", Int ps.Scenario.ps_offered);
        ("accepted", Int ps.Scenario.ps_accepted);
        ("shed_admission", Int ps.Scenario.ps_shed_admission);
        ("shed_dequeue", Int ps.Scenario.ps_shed_dequeue);
        ("completed", Int ps.Scenario.ps_completed);
        ("p50_us", fixed 3 (qs ps.Scenario.ps_sojourn 50.0));
        ("p99_us", fixed 3 (qs ps.Scenario.ps_sojourn 99.0));
      ]
  in
  let assertion ((c : Assertion.t), (v : Assertion.verdict)) =
    Row
      [
        ("label", Str v.Assertion.v_label);
        ("phase", Str c.Assertion.phase);
        ("series", Str (Assertion.series_name c.Assertion.series));
        ("pass", Bool v.Assertion.v_pass);
        ("detail", Str v.Assertion.v_detail);
      ]
  in
  let run (r : Library.run) =
    let o = r.outcome in
    Obj
      [
        ("scenario", Str (scenario_name r));
        ("store", Str (store_name r));
        ("policy", Str o.Scenario.policy);
        ("capacity_per_sec", fixed 1 r.capacity);
        ("unit_dur_s", fixed 6 r.dur);
        ("window_s", fixed 6 o.Scenario.interval);
        ("offered", Int o.Scenario.offered);
        ("accepted", Int o.Scenario.accepted);
        ("shed_admission", Int o.Scenario.shed_admission);
        ("shed_dequeue", Int o.Scenario.shed_dequeue);
        ("completed", Int o.Scenario.completed);
        ("phases", Arr (Array.to_list (Array.map phase o.Scenario.phases)));
        ( "assertions",
          Arr (List.map assertion (List.combine r.checks r.verdicts)) );
        ("pass", Bool (run_pass r));
      ]
  in
  Obj
    [
      ("schema", Str "prism-scenario-v1");
      ("seed", int64 cfg.s.seed);
      ("records", Int cfg.s.records);
      ("value_size", Int cfg.s.value_size);
      ("servers", Int cfg.s.threads);
      ("ops_budget", Int cfg.s.ops);
      ("policy", Str cfg.policy);
      ("runs", Arr (List.map run runs));
      ("pass", Bool (List.for_all run_pass runs));
    ]

(* ---------------------------------------------------------------- *)
(* CLI                                                               *)
(* ---------------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let main () quick list_flag stores scenarios policy scenario json strict
      jobs =
    if list_flag then begin
      List.iter
        (fun e -> pf "%-14s %s\n" e.Library.ename e.Library.esummary)
        Library.all;
      exit 0
    end;
    let base = if quick then quick_config else default_config in
    let o = Option.value in
    let cfg =
      {
        base with
        stores = o stores ~default:base.stores;
        scenarios = o scenarios ~default:base.scenarios;
        policy;
        s = scenario base.s;
      }
    in
    let t0 = Unix.gettimeofday () in
    Report.section
      (Printf.sprintf
         "Scenario suite: %d keys x %dB, %d servers, ~%d arrivals per run, \
          policy %s"
         cfg.s.records cfg.s.value_size cfg.s.threads cfg.s.ops cfg.policy);
    (* Each (scenario, store) pair is an independent fleet job — it
       calibrates, synthesizes and replays from the suite seed alone.
       Merging in pair order keeps stdout and JSON byte-identical for
       any --jobs. *)
    let pairs =
      Array.of_list
        (List.concat_map
           (fun ename ->
             (* Store-restricted scenarios (the placement ones) override
                the configured store list: they only make sense on their
                own stores and would read all-zero probes elsewhere. *)
             let stores =
               match Library.find ename with
               | Some { Library.estores = Some l; _ } -> l
               | _ -> cfg.stores
             in
             List.map (fun store -> (ename, store)) stores)
           cfg.scenarios)
    in
    let results =
      Prism_fleet.Fleet.farm ~jobs (Array.length pairs) (fun i ->
          let ename, store = pairs.(i) in
          run_one cfg ~ename ~store)
    in
    let runs =
      Array.to_list
        (Array.map
           (fun r ->
             pf "%s / %s: %s\n%!" (scenario_name r) (store_name r)
               (if run_pass r then "pass" else "FAIL");
             r)
           results)
    in
    pf "\n";
    List.iter print_run runs;
    (match json with
    | Some path ->
        Json.write path (json_of_runs cfg runs);
        pf "wrote %s\n" path
    | None -> ());
    let failed = List.filter (fun r -> not (run_pass r)) runs in
    pf "suite: %d/%d runs pass (%.1fs wall)\n"
      (List.length runs - List.length failed)
      (List.length runs)
      (Unix.gettimeofday () -. t0);
    if strict && failed <> [] then exit 1
  in
  Cli.exec ~name:"scenario" ~doc:"Time-varying scenario suite with verdicts"
    Term.(
      const main $ Cli.gc_tune
      $ Cli.quick ~doc:"CI-sized: one scenario x two stores"
      $ Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit")
      $ Cli.csv Arg.string "stores"
          ~doc:"Comma-separated: prism,kvell,matrixkv,rocksdb-nvm"
      $ Cli.csv Arg.string "scenarios"
          ~doc:"Comma-separated scenario names (see --list)"
      $ Arg.(
          value & opt string "bounded"
          & info [ "policy" ]
              ~doc:
                "Admission policy: unbounded, bounded[=N], \
                 token-bucket[=RATE[,BURST]], codel[=TARGET_US,INTERVAL_US]")
      $ Cli.scenario
          ~threads:("servers", "Server processes draining the queue")
          ~ops:"Arrival budget per scenario run"
      $ Cli.json ~doc:"Write prism-scenario-v1 verdicts as JSON to $(docv)"
      $ Arg.(
          value & flag
          & info [ "strict" ] ~doc:"Exit nonzero when any assertion fails")
      $ Cli.jobs)
