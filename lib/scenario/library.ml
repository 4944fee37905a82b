type built = {
  spec : Scenario.t;
  probes : string list;
  checks : Assertion.t list;
  store_checks : (string * Assertion.t list) list;
}

type entry = {
  ename : string;
  esummary : string;
  estores : string list option;
  build : dur:float -> records:int -> built;
}

let mix ?(reads = 0.0) ?(updates = 0.0) ?(inserts = 0.0) ?(scans = 0.0)
    ?(deletes = 0.0) ?(scan_len = 50) () =
  { Scenario.reads; updates; inserts; scans; deletes; scan_len }

let phase ?(transition = Scenario.Step) ?(popularity = Scenario.Zipf { theta = 0.99 })
    ?(sizes = Dist.Fixed 256) ?(pmix = Scenario.read_mostly) pname ~duration ~rate =
  { Scenario.pname; duration; rate; transition; pmix; popularity; sizes }

let check label ~phase ~series predicate =
  { Assertion.label; phase; series; predicate }

(* Common generic checks: the disturbance phase's p99 returns to within
   [factor] x the warm baseline shortly after it ends, and the warm phase
   itself sheds (almost) nothing — if it sheds, the scenario is
   miscalibrated, not the store. *)
let recovers ~baseline ~phase ~dur ?(factor = 4.0) label =
  check label ~phase ~series:Assertion.P99_us
    (Assertion.Recovers_within { baseline; factor; within = 1.5 *. dur })

let shed_at_most label ~phase max =
  check label ~phase ~series:Assertion.Goodput
    (Assertion.Shed_fraction { max })

(* ---------------------------------------------------------------- *)

let flash_crowd ~dur ~records:_ =
  let spec =
    {
      Scenario.sname = "flash-crowd";
      window = dur /. 4.0;
      phases =
        [
          phase "warm" ~duration:(2.0 *. dur) ~rate:0.6;
          phase "crowd" ~duration:dur ~rate:1.5
            ~transition:(Scenario.Ramp (0.2 *. dur))
            ~popularity:
              (Scenario.Flash
                 { theta = 0.99; hot_position = 0.83; hot_weight = 0.5 });
          phase "cool" ~duration:(2.0 *. dur) ~rate:0.5
            ~transition:(Scenario.Ramp (0.2 *. dur));
        ];
    }
  in
  {
    spec;
    probes = [ "prism.svc.hits" ];
    checks =
      [
        recovers "crowd-p99-recovers" ~baseline:"warm" ~phase:"crowd" ~dur;
        shed_at_most "warm-no-shed" ~phase:"warm" 0.02;
      ];
    store_checks =
      [
        ( "Prism",
          [
            check "svc-heats" ~phase:"crowd"
              ~series:(Assertion.Probe "prism.svc.hits")
              (Assertion.Moves { min_delta = 1.0 });
          ] );
      ];
  }

let drift ~dur ~records =
  (* Slide the popular set through half the key space over the phase. *)
  let keys_per_s = 0.5 *. float_of_int records /. (2.0 *. dur) in
  let spec =
    {
      Scenario.sname = "drift";
      window = dur /. 4.0;
      phases =
        [
          phase "warm" ~duration:(2.0 *. dur) ~rate:0.6;
          phase "drift" ~duration:(2.0 *. dur) ~rate:0.8
            ~popularity:(Scenario.Drift { theta = 0.99; keys_per_s });
          phase "settle" ~duration:dur ~rate:0.6;
        ];
    }
  in
  {
    spec;
    probes = [ "prism.svc.evictions" ];
    checks =
      [
        recovers "drift-p99-recovers" ~baseline:"warm" ~phase:"drift" ~dur;
        shed_at_most "drift-shed-bounded" ~phase:"drift" 0.6;
        shed_at_most "warm-no-shed" ~phase:"warm" 0.02;
      ];
    store_checks = [];
  }

let heavy_tail ~dur ~records:_ =
  let sizes = Dist.Heavy_tail { typical = 64; alpha = 1.2; cap = 16384 } in
  let writey = mix ~reads:0.7 ~updates:0.3 () in
  let spec =
    {
      Scenario.sname = "heavy-tail";
      window = dur /. 4.0;
      phases =
        [
          phase "steady" ~duration:(2.0 *. dur) ~rate:0.6 ~pmix:writey;
          phase "heavy" ~duration:(2.0 *. dur) ~rate:0.6 ~pmix:writey ~sizes;
          phase "after" ~duration:dur ~rate:0.6 ~pmix:writey;
        ];
    }
  in
  {
    spec;
    probes = [ "prism.device.ssd.bytes_written" ];
    checks =
      [
        recovers "heavy-p99-recovers" ~baseline:"steady" ~phase:"heavy" ~dur;
        shed_at_most "heavy-shed-bounded" ~phase:"heavy" 0.35;
      ];
    store_checks =
      [
        ( "Prism",
          [
            check "ssd-writes-advance" ~phase:"heavy"
              ~series:(Assertion.Probe "prism.device.ssd.bytes_written")
              (Assertion.Moves { min_delta = 1.0 });
          ] );
      ];
  }

let growth ~dur ~records:_ =
  let growing = mix ~reads:0.55 ~updates:0.1 ~inserts:0.35 () in
  let spec =
    {
      Scenario.sname = "growth";
      window = dur /. 4.0;
      phases =
        [
          phase "base" ~duration:(2.0 *. dur) ~rate:0.6;
          phase "growth" ~duration:(2.0 *. dur) ~rate:0.7 ~pmix:growing;
          phase "readback" ~duration:dur ~rate:0.6;
        ];
    }
  in
  {
    spec;
    probes = [ "prism.index.entries" ];
    checks =
      [
        recovers "growth-p99-recovers" ~baseline:"base" ~phase:"growth" ~dur
          ~factor:5.0;
        shed_at_most "growth-shed-bounded" ~phase:"growth" 0.6;
      ];
    store_checks =
      [
        ( "Prism",
          [
            check "index-grows" ~phase:"growth"
              ~series:(Assertion.Probe "prism.index.entries")
              (Assertion.Moves { min_delta = 50.0 });
          ] );
      ];
  }

let delete_churn ~dur ~records:_ =
  let churny = mix ~reads:0.4 ~updates:0.1 ~inserts:0.25 ~deletes:0.25 () in
  let spec =
    {
      Scenario.sname = "delete-churn";
      window = dur /. 4.0;
      phases =
        [
          phase "fill" ~duration:(2.0 *. dur) ~rate:0.6;
          phase "churn" ~duration:(2.0 *. dur) ~rate:0.7 ~pmix:churny;
          phase "calm" ~duration:dur ~rate:0.5;
        ];
    }
  in
  {
    spec;
    probes = [ "prism.device.ssd.waf"; "prism.ops.deletes" ];
    checks =
      [
        recovers "churn-p99-recovers" ~baseline:"fill" ~phase:"churn" ~dur;
        shed_at_most "churn-shed-bounded" ~phase:"churn" 0.7;
      ];
    store_checks =
      [
        ( "Prism",
          [
            check "waf-bounded" ~phase:"churn"
              ~series:(Assertion.Probe "prism.device.ssd.waf")
              (Assertion.Bounded { max = 8.0 });
            check "deletes-land" ~phase:"churn"
              ~series:(Assertion.Probe "prism.ops.deletes")
              (Assertion.Moves { min_delta = 1.0 });
          ] );
      ];
  }

(* The two placement scenarios run a write-heavy mix: tier migration
   happens during PWB reclamation, so updates are what give the CLOCK
   policy chances to move values. *)

let hot_set_inversion ~dur ~records:_ =
  let writey = mix ~reads:0.7 ~updates:0.3 () in
  let hot position =
    Scenario.Flash { theta = 0.99; hot_position = position; hot_weight = 0.6 }
  in
  let spec =
    {
      Scenario.sname = "hot-set-inversion";
      window = dur /. 4.0;
      phases =
        [
          phase "warm" ~duration:(2.0 *. dur) ~rate:0.6 ~pmix:writey
            ~popularity:(hot 0.15);
          phase "invert" ~duration:(2.0 *. dur) ~rate:0.6 ~pmix:writey
            ~popularity:(hot 0.85);
          phase "settle" ~duration:dur ~rate:0.5 ~pmix:writey
            ~popularity:(hot 0.85);
        ];
    }
  in
  {
    spec;
    probes = [ "prism.tier.promotions"; "prism.tier.demotions" ];
    checks =
      [
        recovers "invert-p99-recovers" ~baseline:"warm" ~phase:"invert" ~dur;
        shed_at_most "warm-no-shed" ~phase:"warm" 0.02;
      ];
    store_checks =
      [
        ( "Prism-hotness",
          [
            check "new-hot-set-promotes" ~phase:"invert"
              ~series:(Assertion.Probe "prism.tier.promotions")
              (Assertion.Moves { min_delta = 1.0 });
            check "old-hot-set-demotes" ~phase:"invert"
              ~series:(Assertion.Probe "prism.tier.demotions")
              (Assertion.Moves { min_delta = 1.0 });
          ] );
      ];
  }

let diurnal_rotation ~dur ~records:_ =
  let writey = mix ~reads:0.7 ~updates:0.3 () in
  let hot position =
    Scenario.Flash { theta = 0.99; hot_position = position; hot_weight = 0.6 }
  in
  let spec =
    {
      Scenario.sname = "diurnal-rotation";
      window = dur /. 4.0;
      phases =
        [
          phase "day" ~duration:(2.0 *. dur) ~rate:0.7 ~pmix:writey
            ~popularity:(hot 0.2);
          phase "night" ~duration:dur ~rate:0.35 ~pmix:writey
            ~popularity:(hot 0.7)
            ~transition:(Scenario.Ramp (0.2 *. dur));
          phase "day2" ~duration:(2.0 *. dur) ~rate:0.7 ~pmix:writey
            ~popularity:(hot 0.2)
            ~transition:(Scenario.Ramp (0.2 *. dur));
        ];
    }
  in
  {
    spec;
    probes = [ "prism.tier.promotions"; "prism.tier.demotions" ];
    checks =
      [
        recovers "day2-p99-recovers" ~baseline:"day" ~phase:"night" ~dur;
        shed_at_most "day-shed-bounded" ~phase:"day" 0.05;
      ];
    store_checks =
      [
        ( "Prism-hotness",
          [
            check "night-set-promotes" ~phase:"night"
              ~series:(Assertion.Probe "prism.tier.promotions")
              (Assertion.Moves { min_delta = 1.0 });
            check "rotation-demotes" ~phase:"day2"
              ~series:(Assertion.Probe "prism.tier.demotions")
              (Assertion.Moves { min_delta = 1.0 });
          ] );
      ];
  }

(* ---------------------------------------------------------------- *)

let all =
  [
    {
      ename = "flash-crowd";
      esummary = "a cold key turns hot mid-run, then the crowd subsides";
      estores = None;
      build = (fun ~dur ~records -> flash_crowd ~dur ~records);
    };
    {
      ename = "drift";
      esummary = "the working set slides through half the key space";
      estores = None;
      build = (fun ~dur ~records -> drift ~dur ~records);
    };
    {
      ename = "heavy-tail";
      esummary = "Facebook-style Pareto value sizes replace fixed 256 B";
      estores = None;
      build = (fun ~dur ~records -> heavy_tail ~dur ~records);
    };
    {
      ename = "growth";
      esummary = "insert-heavy phase extends the key space by ~a third";
      estores = None;
      build = (fun ~dur ~records -> growth ~dur ~records);
    };
    {
      ename = "delete-churn";
      esummary = "deletes and inserts churn the live set under load";
      estores = None;
      build = (fun ~dur ~records -> delete_churn ~dur ~records);
    };
    {
      ename = "hot-set-inversion";
      esummary = "the hot set flips to the far end of the key space";
      estores = Some [ "prism-hotness" ];
      build = (fun ~dur ~records -> hot_set_inversion ~dur ~records);
    };
    {
      ename = "diurnal-rotation";
      esummary = "day/night working sets rotate between two key regions";
      estores = Some [ "prism-hotness" ];
      build = (fun ~dur ~records -> diurnal_rotation ~dur ~records);
    };
  ]

let find name = List.find_opt (fun e -> e.ename = name) all

let names = List.map (fun e -> e.ename) all

let checks_for b ~store =
  b.checks
  @ (List.assoc_opt store b.store_checks |> Option.value ~default:[])

type run = {
  capacity : float;
  dur : float;
  checks : Assertion.t list;
  outcome : Scenario.outcome;
  verdicts : Assertion.verdict list;
}

let run entry ~make engine kv (s : Prism_harness.Setup.scenario) ~servers
    ~policy ~cal_ops ~seed_key =
  let open Prism_harness in
  let records = s.records in
  let r = Runner.calibrate ~ops:cal_ops make Prism_workload.Ycsb.ycsb_b s in
  let capacity = r.Runner.kops *. 1e3 in
  (* Scale the unit phase length so the whole scenario offers ~[s.ops]
     arrivals at this store's capacity. Durations (and ramps, and
     assertion windows) are all multiples of dur, so expected arrivals
     scale linearly in it. *)
  let unit = entry.build ~dur:1.0 ~records in
  let dur =
    float_of_int s.ops /. Scenario.expected_arrivals unit.spec ~base_rate:capacity
  in
  let built = entry.build ~dur ~records in
  let policy =
    match Prism_frontend.Admission.of_string ~capacity ~servers policy with
    | Ok p -> p
    | Error e -> failwith e
  in
  (* Decorrelate the trace across (scenario, store) pairs while keeping
     each a pure function of the seed. *)
  let seed =
    Int64.add s.seed
      (Prism_index.Strhash.fnv1a
         (Printf.sprintf "scenario/%s/%s" entry.ename seed_key))
  in
  let trace =
    Scenario.synthesize built.spec ~base_rate:capacity ~records ~seed
  in
  ignore (Runner.load engine kv s);
  let outcome =
    Scenario.run ~servers engine kv built.spec ~policy ~base_rate:capacity
      ~probes:built.probes ~trace
  in
  let checks = checks_for built ~store:kv.Kv.name in
  { capacity; dur; checks; outcome; verdicts = Assertion.eval_all checks outcome }
