(* lib/scenario: determinism of synthesis and replay, per-phase
   accounting invariants, the assertion DSL on hand-built telemetry, and
   the flash-crowd hotness regression against the real Prism store. *)

open Prism_sim
open Prism_workload
open Prism_harness
open Prism_frontend
open Prism_scenario
open Helpers

(* ---------------------------------------------------------------- *)
(* A tiny deterministic store: every operation takes [service]. *)

let fake_kv ~service =
  {
    Kv.name = "fake";
    stat_prefix = "fake";
    put = (fun ~tid:_ _ _ -> Engine.delay service);
    get =
      (fun ~tid:_ _ ->
        Engine.delay service;
        Some (Bytes.create 1));
    delete =
      (fun ~tid:_ _ ->
        Engine.delay service;
        true);
    scan =
      (fun ~tid:_ _ _ ->
        Engine.delay service;
        []);
    quiesce = (fun () -> ());
    recover = None;
  }

let servers = 4
let service = 1e-5

(* servers / service = 4 / 10us = 400k ops/s analytic capacity. *)
let capacity = float_of_int servers /. service

let stub_phase ?(transition = Scenario.Step) ?(pmix = Scenario.read_mostly)
    ?(rate = 1.0) pname duration =
  {
    Scenario.pname;
    duration;
    rate;
    transition;
    pmix;
    popularity = Scenario.Zipf { theta = 0.99 };
    sizes = Dist.Fixed 64;
  }

(* Calm / 3x-capacity surge (with churny mix) / settle — enough to make
   the bounded queue shed in the middle phase and recover after it. *)
let small_spec =
  let churny =
    {
      Scenario.reads = 0.5;
      updates = 0.2;
      inserts = 0.15;
      scans = 0.05;
      deletes = 0.1;
      scan_len = 8;
    }
  in
  {
    Scenario.sname = "tri";
    window = 0.001;
    phases =
      [
        stub_phase "calm" 0.004 ~rate:0.5;
        stub_phase "surge" 0.004 ~rate:3.0
          ~transition:(Scenario.Ramp 0.001) ~pmix:churny;
        stub_phase "settle" 0.002 ~rate:0.5;
      ];
  }

let small_checks =
  [
    {
      Assertion.label = "surge-recovers";
      phase = "surge";
      series = Assertion.P99_us;
      predicate =
        Assertion.Recovers_within
          { baseline = "calm"; factor = 8.0; within = 0.004 };
    };
    {
      Assertion.label = "calm-no-shed";
      phase = "calm";
      series = Assertion.Goodput;
      predicate = Assertion.Shed_fraction { max = 0.05 };
    };
  ]

let run_small_in ~seed =
  let trace =
    Scenario.synthesize small_spec ~base_rate:capacity ~records:300 ~seed
  in
  let engine = Engine.create () in
  let kv = Kv.instrument engine (fake_kv ~service) in
  let outcome =
    Scenario.run ~servers engine kv small_spec
      ~policy:(Admission.Bounded 32) ~base_rate:capacity ~probes:[] ~trace
  in
  (trace, engine, outcome)

let run_small ~seed =
  let trace, _, outcome = run_small_in ~seed in
  (trace, outcome)

(* ---------------------------------------------------------------- *)
(* Structural validation                                             *)

let test_validate () =
  Alcotest.(check bool) "small spec valid" true
    (Scenario.validate small_spec = Ok ());
  let bad names =
    Scenario.validate { small_spec with Scenario.phases = names } <> Ok ()
  in
  Alcotest.(check bool) "no phases rejected" true (bad []);
  Alcotest.(check bool) "negative duration rejected" true
    (bad [ stub_phase "p" (-1.0) ]);
  Alcotest.(check bool) "duplicate names rejected" true
    (bad [ stub_phase "p" 1.0; stub_phase "p" 1.0 ]);
  Alcotest.(check bool) "window must be positive" true
    (Scenario.validate { small_spec with Scenario.window = 0.0 } <> Ok ())

(* ---------------------------------------------------------------- *)
(* Determinism (satellite: same seed => same bytes)                  *)

let test_synthesize_deterministic () =
  let t1 =
    Scenario.synthesize small_spec ~base_rate:capacity ~records:300 ~seed:42L
  in
  let t2 =
    Scenario.synthesize small_spec ~base_rate:capacity ~records:300 ~seed:42L
  in
  Alcotest.(check bool) "same seed, identical trace" true (t1 = t2);
  let t3 =
    Scenario.synthesize small_spec ~base_rate:capacity ~records:300 ~seed:43L
  in
  Alcotest.(check bool) "different seed differs" true (t1 <> t3)

(* Render every observable of an executed run — window rows, phase
   boundaries and accounting, sojourn quantiles, verdict labels and
   detail strings — into one string, and require rerun equality. *)
let render_run (o : Scenario.outcome) verdicts =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  Array.iter
    (fun w ->
      add "w %.9f %d %d %d %.6f %.6f %d\n" w.Scenario.w_start
        w.Scenario.w_offered w.Scenario.w_shed w.Scenario.w_completed
        w.Scenario.w_p50_us w.Scenario.w_p99_us w.Scenario.w_depth)
    o.Scenario.windows;
  Array.iter
    (fun ps ->
      add "p %s %.9f %.9f %d %d %d %d %d %.3f\n" ps.Scenario.ps_name
        ps.Scenario.ps_start ps.Scenario.ps_end ps.Scenario.ps_offered
        ps.Scenario.ps_accepted ps.Scenario.ps_shed_admission
        ps.Scenario.ps_shed_dequeue ps.Scenario.ps_completed
        (Hist.us_of_ns (Hist.quantile ps.Scenario.ps_sojourn 99.0)))
    o.Scenario.phases;
  List.iter
    (fun v ->
      add "v %s %b %s\n" v.Assertion.v_label v.Assertion.v_pass
        v.Assertion.v_detail)
    verdicts;
  Buffer.contents b

let test_run_deterministic () =
  let once () =
    let _, o = run_small ~seed:7L in
    render_run o (Assertion.eval_all small_checks o)
  in
  Alcotest.(check string) "same seed, byte-identical run + verdicts"
    (once ()) (once ())

(* The rerun check above only compares the driver against itself; this
   pins the rendered run to a digest recorded before [Scenario.run]
   became an observer over [Frontend.run], so driver refactors must keep
   every window, phase and verdict byte-identical. *)
let test_run_golden () =
  let _, o = run_small ~seed:7L in
  Alcotest.(check string) "render_run digest" "22d8eda2174e1e202d15b1ff40bcd2cd"
    (Digest.to_hex
       (Digest.string (render_run o (Assertion.eval_all small_checks o))))

(* Scenario runs are replayed by [Frontend.run], so they publish the
   [frontend.*] family and record queue waits into the store's kv wait
   split, which the scenario driver used to skip. *)
let test_run_telemetry () =
  let _, engine, o = run_small_in ~seed:7L in
  let count name =
    match Stats.find (Engine.stats engine) name with
    | Some (Stats.Histogram h) -> Hist.count h
    | _ -> Alcotest.failf "histogram %s missing" name
  in
  Alcotest.(check bool) "get waits recorded" true (count "kv.fake.get.wait" > 0);
  Alcotest.(check int) "frontend.sojourn count = completed" o.Scenario.completed
    (count "frontend.sojourn")

(* ---------------------------------------------------------------- *)
(* Accounting and shape invariants                                   *)

let test_small_run_sheds_and_recovers () =
  let trace, o = run_small ~seed:7L in
  Alcotest.(check int) "offered = trace length" (Array.length trace)
    o.Scenario.offered;
  Alcotest.(check bool) "surge sheds" true
    (let s =
       Array.to_seq o.Scenario.phases
       |> Seq.find (fun ps -> ps.Scenario.ps_name = "surge")
       |> Option.get
     in
     s.Scenario.ps_shed_admission + s.Scenario.ps_shed_dequeue > 0);
  List.iter2
    (fun (c : Assertion.t) v ->
      Alcotest.(check bool)
        (c.Assertion.label ^ ": " ^ v.Assertion.v_detail)
        true v.Assertion.v_pass)
    small_checks
    (Assertion.eval_all small_checks o)

let accounting_holds (trace, (o : Scenario.outcome)) =
  o.Scenario.offered = Array.length trace
  && Array.for_all
       (fun ps ->
         ps.Scenario.ps_offered
         = ps.Scenario.ps_accepted + ps.Scenario.ps_shed_admission
         && ps.Scenario.ps_accepted
            = ps.Scenario.ps_completed + ps.Scenario.ps_shed_dequeue)
       o.Scenario.phases
  && Array.fold_left (fun a ps -> a + ps.Scenario.ps_offered) 0 o.Scenario.phases
     = o.Scenario.offered
  && Array.fold_left (fun a ps -> a + ps.Scenario.ps_completed) 0
       o.Scenario.phases
     = o.Scenario.completed
  && o.Scenario.offered = o.Scenario.accepted + o.Scenario.shed_admission
  && o.Scenario.accepted = o.Scenario.completed + o.Scenario.shed_dequeue

(* A spec from a list of (duration-in-centiseconds, rate-in-tenths):
   random shapes for the structural qcheck properties. *)
let qspec_of durs =
  let phases =
    List.mapi
      (fun i (d, r) ->
        let duration = float_of_int d /. 100.0 in
        let transition =
          if i mod 2 = 1 then Scenario.Ramp (0.3 *. duration) else Scenario.Step
        in
        stub_phase
          (Printf.sprintf "p%d" i)
          duration ~transition
          ~rate:(float_of_int r /. 10.0))
      durs
  in
  { Scenario.sname = "q"; window = 0.01; phases }

let prop_durations_sum durs =
  let t = qspec_of durs in
  let total = Scenario.total_duration t in
  let sum =
    List.fold_left (fun a (d, _) -> a +. (float_of_int d /. 100.0)) 0.0 durs
  in
  let b = Scenario.phase_bounds t in
  let contiguous = ref (fst b.(0) = 0.0) in
  for i = 1 to Array.length b - 1 do
    if Float.abs (fst b.(i) -. snd b.(i - 1)) > 1e-9 then contiguous := false
  done;
  Scenario.validate t = Ok ()
  && Float.abs (total -. sum) <= 1e-9
  && Array.length b = List.length durs
  && !contiguous
  && Float.abs (snd b.(Array.length b - 1) -. total) <= 1e-9

let prop_accounting seed = accounting_holds (run_small ~seed:(Int64.of_int seed))

(* ---------------------------------------------------------------- *)
(* Assertion DSL on hand-built telemetry (satellite 2)               *)

(* Four phases — base [0,4), disturb [4,7), after [7,10), idle [10,11)
   with no windows — and one cumulative probe "m". Window 3 has no
   completions (latency series must skip it; its bogus p99 would poison
   the baseline median otherwise). *)
let hand_outcome () =
  let w start offered shed completed p99 depth =
    {
      Scenario.w_start = start;
      w_offered = offered;
      w_shed = shed;
      w_completed = completed;
      w_p50_us = p99 /. 2.0;
      w_p99_us = p99;
      w_depth = depth;
    }
  in
  let windows =
    [|
      w 0.0 10 0 10 100.0 2;
      w 1.0 10 0 10 100.0 2;
      w 2.0 10 0 10 100.0 2;
      w 3.0 10 0 0 9999.0 2;
      w 4.0 40 30 8 1000.0 50;
      w 5.0 40 30 8 1000.0 50;
      w 6.0 40 30 8 1000.0 50;
      w 7.0 10 0 9 500.0 5;
      w 8.0 10 0 9 150.0 5;
      w 9.0 10 0 9 120.0 5;
    |]
  in
  let ps name s e offered acc sa sd comp =
    {
      Scenario.ps_name = name;
      ps_start = s;
      ps_end = e;
      ps_offered = offered;
      ps_accepted = acc;
      ps_shed_admission = sa;
      ps_shed_dequeue = sd;
      ps_completed = comp;
      ps_sojourn = Hist.create ();
    }
  in
  let phases =
    [|
      ps "base" 0.0 4.0 40 40 0 0 30;
      ps "disturb" 4.0 7.0 120 100 20 10 90;
      ps "after" 7.0 10.0 30 30 0 0 27;
      ps "idle" 10.0 11.0 0 0 0 0 0;
    |]
  in
  {
    Scenario.spec =
      {
        Scenario.sname = "hand";
        window = 1.0;
        phases =
          [
            stub_phase "base" 4.0;
            stub_phase "disturb" 3.0;
            stub_phase "after" 3.0;
            stub_phase "idle" 1.0;
          ];
      };
    store = "T";
    policy = "test";
    base_rate = 100.0;
    interval = 1.0;
    windows;
    probes = [ ("m", [| 1.; 2.; 3.; 4.; 10.; 20.; 30.; 30.; 30.; 31. |]) ];
    phases;
    offered = 190;
    accepted = 170;
    shed_admission = 20;
    shed_dequeue = 10;
    completed = 147;
  }

let expect label phase series predicate expected =
  let o = hand_outcome () in
  let v = Assertion.eval { Assertion.label; phase; series; predicate } o in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s): %s" label
       (if expected then "should pass" else "should fail")
       v.Assertion.v_detail)
    expected v.Assertion.v_pass

let test_dsl_recovers () =
  (* Baseline median is 100 (window 3 is dead and must be skipped):
     threshold 200, first recovered window is w_start = 8. *)
  expect "recovers" "disturb" Assertion.P99_us
    (Assertion.Recovers_within { baseline = "base"; factor = 2.0; within = 3.0 })
    true;
  expect "deadline too tight" "disturb" Assertion.P99_us
    (Assertion.Recovers_within { baseline = "base"; factor = 2.0; within = 0.5 })
    false;
  expect "never recovers" "disturb" Assertion.P99_us
    (Assertion.Recovers_within
       { baseline = "base"; factor = 1.05; within = 3.0 })
    false;
  expect "unknown baseline" "disturb" Assertion.P99_us
    (Assertion.Recovers_within { baseline = "nope"; factor = 2.0; within = 3.0 })
    false

let test_dsl_bounded () =
  expect "depth bounded" "disturb" Assertion.Depth
    (Assertion.Bounded { max = 60.0 })
    true;
  expect "depth over bound" "disturb" Assertion.Depth
    (Assertion.Bounded { max = 10.0 })
    false;
  expect "probe bounded" "base" (Assertion.Probe "m")
    (Assertion.Bounded { max = 4.0 })
    true;
  (* A phase past the last window has no samples: vacuous pass. *)
  expect "vacuous" "idle" Assertion.Depth (Assertion.Bounded { max = 0.0 }) true

let test_dsl_shed_fraction () =
  (* disturb: shed 30 of 120 offered = 0.25 exactly. *)
  expect "at limit" "disturb" Assertion.Goodput
    (Assertion.Shed_fraction { max = 0.25 })
    true;
  expect "over limit" "disturb" Assertion.Goodput
    (Assertion.Shed_fraction { max = 0.2 })
    false;
  expect "empty phase passes" "idle" Assertion.Goodput
    (Assertion.Shed_fraction { max = 0.0 })
    true

let test_dsl_moves () =
  (* Probe m: last pre-disturb sample 4, last in-disturb 30 => delta 26. *)
  expect "probe moves" "disturb" (Assertion.Probe "m")
    (Assertion.Moves { min_delta = 26.0 })
    true;
  expect "probe moves too little" "disturb" (Assertion.Probe "m")
    (Assertion.Moves { min_delta = 26.5 })
    false;
  (* Non-probe series sum over the phase: completed 8+8+8 = 24. *)
  expect "goodput sums" "disturb" Assertion.Goodput
    (Assertion.Moves { min_delta = 24.0 })
    true;
  expect "goodput short" "disturb" Assertion.Goodput
    (Assertion.Moves { min_delta = 25.0 })
    false

let test_dsl_unknown_names () =
  expect "unknown phase" "ghost" Assertion.Depth
    (Assertion.Bounded { max = 1.0 })
    false;
  expect "unknown probe" "disturb" (Assertion.Probe "nope")
    (Assertion.Moves { min_delta = 0.0 })
    false

(* ---------------------------------------------------------------- *)
(* Flash crowd heats the SVC (satellite 4)                           *)

let test_flash_crowd_heats_svc () =
  (* Small enough datasets never spill to the SSD, so the SVC is never
     consulted; this scale (the bench --quick size) does. *)
  let records = 4_000 and srv = 8 and value_size = 256 and seed = 11L in
  let s =
    {
      Setup.default_scenario with
      records;
      value_size;
      threads = srv;
      seed;
    }
  in
  let make e = fst (Setup.prism e s) in
  let cap =
    let r = Runner.calibrate ~ops:3_000 make Ycsb.ycsb_b s in
    r.Runner.kops *. 1e3
  in
  let entry = Option.get (Library.find "flash-crowd") in
  let unit = entry.Library.build ~dur:1.0 ~records in
  let dur =
    4_000.0 /. Scenario.expected_arrivals unit.Library.spec ~base_rate:cap
  in
  let built = entry.Library.build ~dur ~records in
  let policy =
    match Admission.of_string ~capacity:cap ~servers:srv "bounded" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let trace =
    Scenario.synthesize built.Library.spec ~base_rate:cap ~records ~seed
  in
  let e = Engine.create () in
  let kv = Kv.instrument e (make e) in
  ignore (Runner.load e kv s);
  let o =
    Scenario.run ~servers:srv e kv built.Library.spec ~policy ~base_rate:cap
      ~probes:built.Library.probes ~trace
  in
  let hits = List.assoc "prism.svc.hits" o.Scenario.probes in
  let n = Array.length hits in
  Alcotest.(check bool) "svc hit counter advances over the run" true
    (n > 0 && hits.(n - 1) > hits.(0));
  (* The library's store-scoped check: hits advance during the crowd. *)
  let svc =
    List.find
      (fun (c : Assertion.t) -> c.Assertion.label = "svc-heats")
      (Library.checks_for built ~store:kv.Kv.name)
  in
  let v = Assertion.eval svc o in
  Alcotest.(check bool) ("svc-heats: " ^ v.Assertion.v_detail) true
    v.Assertion.v_pass

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "scenario"
    [
      ( "spec",
        [
          case "validate" test_validate;
          qcase ~count:100 "durations sum; bounds contiguous"
            QCheck.(
              list_of_size
                (Gen.int_range 1 5)
                (pair (int_range 1 100) (int_range 0 30)))
            prop_durations_sum;
        ] );
      ( "determinism",
        [
          case "synthesize is a pure function of the seed"
            test_synthesize_deterministic;
          case "replay + verdicts byte-identical across reruns"
            test_run_deterministic;
          case "replay + verdicts match the golden digest" test_run_golden;
          case "queue waits reach the kv wait split" test_run_telemetry;
        ] );
      ( "accounting",
        [
          case "surge sheds, checks pass" test_small_run_sheds_and_recovers;
          qcase ~count:6 "offered = accepted + shed per phase"
            QCheck.(int_bound 100_000)
            prop_accounting;
        ] );
      ( "assertion dsl",
        [
          case "recovers-within" test_dsl_recovers;
          case "bounded" test_dsl_bounded;
          case "shed-fraction" test_dsl_shed_fraction;
          case "moves" test_dsl_moves;
          case "unknown names fail, not raise" test_dsl_unknown_names;
        ] );
      ( "stores",
        [ case "flash crowd heats the SVC" test_flash_crowd_heats_svc ] );
    ]
