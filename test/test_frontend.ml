(* Tests for the open-loop front-end: arrival processes (moments and
   determinism), admission policies (unit semantics and run invariants),
   and the queue-wait telemetry split. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_frontend
open Helpers

(* ---- arrival processes ---- *)

let gaps arrival n =
  Array.init n (fun _ -> Arrival.next_gap arrival)

let moments a =
  let n = float_of_int (Array.length a) in
  let mean = Array.fold_left ( +. ) 0.0 a /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a /. n
  in
  (mean, var)

let test_poisson_moments () =
  let rate = 1e5 in
  let a = Arrival.poisson ~rate (Rng.create 7L) in
  Alcotest.(check string) "name" "poisson" (Arrival.name a);
  check_approx "mean rate" (Arrival.mean_rate a) rate;
  let mean, var = moments (gaps a 30_000) in
  let scv = var /. (mean *. mean) in
  if Float.abs ((mean *. rate) -. 1.0) > 0.05 then
    Alcotest.failf "poisson mean gap %g, want ~%g" mean (1.0 /. rate);
  (* Exponential gaps: squared coefficient of variation = 1. *)
  if scv < 0.9 || scv > 1.1 then Alcotest.failf "poisson scv %g, want ~1" scv

let test_mmpp_moments () =
  let a =
    Arrival.mmpp ~rate_low:2e4 ~rate_high:1.8e5 ~dwell_low:1e-3
      ~dwell_high:1e-3 (Rng.create 8L)
  in
  Alcotest.(check string) "name" "mmpp" (Arrival.name a);
  (* Equal dwells: the dwell-weighted mean rate is the plain average. *)
  check_approx "mean rate" (Arrival.mean_rate a) 1e5;
  let mean, var = moments (gaps a 50_000) in
  let scv = var /. (mean *. mean) in
  if Float.abs ((mean *. 1e5) -. 1.0) > 0.10 then
    Alcotest.failf "mmpp mean gap %g, want ~1e-5" mean;
  (* Burstiness is the point: interarrival variance must exceed
     Poisson's (scv 1) by a clear margin (analytically ~4.6 here). *)
  if scv < 1.5 then Alcotest.failf "mmpp scv %g, want > 1.5" scv

let test_diurnal_moments () =
  let a =
    Arrival.diurnal ~base_rate:5e4 ~peak_rate:1.5e5 ~period:1e-2
      (Rng.create 9L)
  in
  Alcotest.(check string) "name" "diurnal" (Arrival.name a);
  check_approx "mean rate" (Arrival.mean_rate a) 1e5;
  (* ~30 full periods: the empirical rate converges on (base+peak)/2. *)
  let n = 30_000 in
  let sched = Arrival.schedule a ~n in
  let elapsed = sched.(n - 1) in
  let rate = float_of_int n /. elapsed in
  if Float.abs ((rate /. 1e5) -. 1.0) > 0.10 then
    Alcotest.failf "diurnal empirical rate %g, want ~1e5" rate

let test_arrival_gaps_positive_and_schedule_sorted () =
  List.iter
    (fun make ->
      let a = make (Rng.create 10L) in
      Array.iter
        (fun g -> if g <= 0.0 then Alcotest.failf "gap %g not positive" g)
        (gaps a 2_000);
      let sched = Arrival.schedule a ~n:2_000 in
      for i = 1 to Array.length sched - 1 do
        if sched.(i) <= sched.(i - 1) then
          Alcotest.fail "schedule not strictly increasing"
      done)
    [
      Arrival.poisson ~rate:1e6;
      Arrival.mmpp ~rate_low:1e5 ~rate_high:2e6 ~dwell_low:1e-4
        ~dwell_high:3e-4;
      Arrival.diurnal ~base_rate:1e5 ~peak_rate:1e6 ~period:1e-3;
    ]

let test_arrival_deterministic () =
  let make seed = function
    | "poisson" -> Arrival.poisson ~rate:1e5 (Rng.create seed)
    | "mmpp" ->
        Arrival.mmpp ~rate_low:2e4 ~rate_high:1.8e5 ~dwell_low:1e-3
          ~dwell_high:1e-3 (Rng.create seed)
    | _ ->
        Arrival.diurnal ~base_rate:5e4 ~peak_rate:1.5e5 ~period:1e-2
          (Rng.create seed)
  in
  List.iter
    (fun kind ->
      let s1 = Arrival.schedule (make 42L kind) ~n:5_000 in
      let s2 = Arrival.schedule (make 42L kind) ~n:5_000 in
      if s1 <> s2 then Alcotest.failf "%s: same seed, different schedule" kind;
      let s3 = Arrival.schedule (make 43L kind) ~n:5_000 in
      if s1 = s3 then Alcotest.failf "%s: different seed, same schedule" kind)
    [ "poisson"; "mmpp"; "diurnal" ]

(* ---- admission policies: parsing and unit semantics ---- *)

let test_policy_parse () =
  let parse s = Admission.of_string ~capacity:1e5 ~servers:8 s in
  (match parse "bounded=64" with
  | Ok (Admission.Bounded 64) -> ()
  | _ -> Alcotest.fail "bounded=64");
  (match parse "bounded" with
  | Ok (Admission.Bounded b) ->
      Alcotest.(check int) "default bound = 25 x servers" 200 b
  | _ -> Alcotest.fail "bounded default");
  (match parse "token-bucket" with
  | Ok (Admission.Token_bucket { rate; burst }) ->
      check_approx "rate 0.95 x capacity" rate 95_000.0;
      check_approx "burst 2 x servers" burst 16.0
  | _ -> Alcotest.fail "token-bucket default");
  (match parse "codel=10:100" with
  | Ok (Admission.Codel { target; interval }) ->
      check_approx "target us" target 1e-5;
      check_approx "interval us" interval 1e-4
  | _ -> Alcotest.fail "codel=10:100");
  (match parse "unbounded" with
  | Ok Admission.Unbounded -> ()
  | _ -> Alcotest.fail "unbounded");
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ "bounded=0"; "bounded=x"; "token-bucket=-1"; "codel=5"; "lifo" ]

let test_bounded_semantics () =
  let p = Admission.create (Admission.Bounded 4) in
  Alcotest.(check bool) "below bound" true
    (Admission.admit p ~now:0.0 ~depth:3 = Admission.Accept);
  Alcotest.(check bool) "at bound" true
    (Admission.admit p ~now:0.0 ~depth:4 = Admission.Shed)

let test_token_bucket_semantics () =
  let p =
    Admission.create (Admission.Token_bucket { rate = 1000.0; burst = 2.0 })
  in
  let admit now = Admission.admit p ~now ~depth:0 in
  Alcotest.(check bool) "burst 1" true (admit 0.0 = Admission.Accept);
  Alcotest.(check bool) "burst 2" true (admit 0.0 = Admission.Accept);
  Alcotest.(check bool) "bucket empty" true (admit 0.0 = Admission.Shed);
  (* 1ms at 1000 tokens/s refills exactly one token. *)
  Alcotest.(check bool) "refilled" true (admit 1e-3 = Admission.Accept);
  Alcotest.(check bool) "empty again" true (admit 1e-3 = Admission.Shed)

let test_codel_semantics () =
  let target = 1e-5 and interval = 1e-4 in
  let p = Admission.create (Admission.Codel { target; interval }) in
  let deq now wait = Admission.on_dequeue p ~now ~wait ~depth:5 in
  Alcotest.(check bool) "below target" true
    (deq 0.0 1e-6 = Admission.Accept);
  (* Crossing target arms the interval timer but does not drop yet. *)
  Alcotest.(check bool) "first above" true (deq 0.0 5e-5 = Admission.Accept);
  Alcotest.(check bool) "within interval" true
    (deq 5e-5 5e-5 = Admission.Accept);
  (* Above target for a full interval: dropping starts. *)
  Alcotest.(check bool) "drops after interval" true
    (deq 1.2e-4 5e-5 = Admission.Shed);
  (* Recovery: one dequeue under target leaves the dropping state. *)
  Alcotest.(check bool) "recovers" true (deq 2e-4 1e-6 = Admission.Accept);
  Alcotest.(check bool) "re-arms" true (deq 2.5e-4 5e-5 = Admission.Accept)

(* Regression for load that ebbs and returns: when the queue fully drains
   (the dequeue that empties it sees depth = 0), CoDel must leave the
   dropping state and forget its control-law memory, so congestion that
   returns later gets a full interval of grace and drop spacing restarted
   from interval / sqrt(1) — exactly like a fresh policy. *)
let test_codel_drain_resets () =
  let target = 1e-5 and interval = 1e-4 in
  let p = Admission.create (Admission.Codel { target; interval }) in
  let deq ?(depth = 5) now wait = Admission.on_dequeue p ~now ~wait ~depth in
  (* Phase 1: congest until the control law tightens (several drops). *)
  Alcotest.(check bool) "arms" true (deq 0.0 5e-5 = Admission.Accept);
  Alcotest.(check bool) "first drop" true (deq 1.2e-4 5e-5 = Admission.Shed);
  Alcotest.(check bool) "second drop" true (deq 2.3e-4 5e-5 = Admission.Shed);
  Alcotest.(check bool) "third drop" true (deq 3.1e-4 5e-5 = Admission.Shed);
  (* The queue fully drains across the phase boundary. *)
  Alcotest.(check bool) "drain accepts" true
    (deq ~depth:0 4e-4 5e-5 = Admission.Accept);
  (* Phase 2: congestion re-enters much later. The first over-target
     dequeue must get a full interval of grace, not an immediate drop
     from stale [dropping]/[drop_next] state. *)
  Alcotest.(check bool) "grace after drain" true
    (deq 1.0e-2 5e-5 = Admission.Accept);
  Alcotest.(check bool) "still within grace" true
    (deq (1.0e-2 +. (0.9 *. interval)) 5e-5 = Admission.Accept);
  Alcotest.(check bool) "drops after full interval" true
    (deq (1.0e-2 +. (1.2 *. interval)) 5e-5 = Admission.Shed)

(* Stronger form: after a full drain, the reused policy must be
   behaviorally identical to a freshly created one on any subsequent
   (now, wait, depth) sequence. *)
let test_codel_reentry_matches_fresh () =
  let target = 1e-5 and interval = 1e-4 in
  let spec = Admission.Codel { target; interval } in
  let used = Admission.create spec in
  let deq p now wait depth = Admission.on_dequeue p ~now ~wait ~depth in
  ignore (deq used 0.0 5e-5 7);
  ignore (deq used 1.2e-4 5e-5 7);
  ignore (deq used 2.3e-4 5e-5 6);
  ignore (deq used 3.1e-4 5e-5 5);
  ignore (deq used 3.4e-4 4e-5 0);
  (* ^ drained *)
  let fresh = Admission.create spec in
  (* Phase-2 sequence: ramp back into congestion, hold, then recover. *)
  List.iter
    (fun i ->
      let now = 2e-3 +. (float_of_int i *. 3e-5) in
      let wait =
        if i < 40 then 5e-5 +. (float_of_int i *. 1e-6) else 2e-6
      in
      let depth = if i < 40 then 5 + (i mod 3) else 1 in
      let a = deq used now wait depth in
      let b = deq fresh now wait depth in
      Alcotest.(check bool)
        (Printf.sprintf "same outcome at step %d" i)
        true (a = b))
    (List.init 60 Fun.id)

(* ---- front-end runs: a synthetic fixed-service-time store ---- *)

(* A store where every op costs exactly [service] virtual seconds makes
   capacity analytic (servers / service) and runs cheap enough for
   property tests. *)
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

let run_frontend ?(servers = 4) ?(ops = 800) ?(seed = 21L) ~policy ~rate () =
  let engine = Engine.create () in
  let kv = fake_kv ~service:1e-5 in
  let rng = Rng.create seed in
  let arrival = Arrival.poisson ~rate (Rng.split rng) in
  let gen = Ycsb.create Ycsb.ycsb_b ~records:200 ~theta:0.99 ~value_size:16 rng in
  let trace =
    Trace.record_timed gen ~gap:(fun () -> Arrival.next_gap arrival) ~ops
  in
  (engine, Frontend.run ~servers engine kv ~policy ~offered_rate:rate ~trace)

(* servers / service = 4 / 10us = 400k ops/s analytic capacity. *)
let capacity = 4.0 /. 1e-5

let test_frontend_accounting () =
  List.iter
    (fun policy ->
      let _, r = run_frontend ~policy ~rate:(1.5 *. capacity) () in
      Alcotest.(check int) "offered = trace" 800 r.Frontend.offered;
      Alcotest.(check int) "offered = accepted + shed_admission"
        r.Frontend.offered
        (r.Frontend.accepted + r.Frontend.shed_admission);
      Alcotest.(check int) "accepted = completed + shed_dequeue"
        r.Frontend.accepted
        (r.Frontend.completed + r.Frontend.shed_dequeue);
      Alcotest.(check int) "sojourns = completions" r.Frontend.completed
        (Hist.count r.Frontend.sojourn);
      Alcotest.(check bool) "goodput positive" true (r.Frontend.goodput > 0.0))
    [
      Admission.Unbounded;
      Admission.Bounded 16;
      Admission.Token_bucket { rate = 0.9 *. capacity; burst = 8.0 };
      Admission.Codel { target = 5e-5; interval = 2e-4 };
    ]

(* Every count plus the p50/p99 of sojourn, wait and service, pinned per
   policy to digests that every refactor of [Frontend.run] must keep: a
   rerun-equals-rerun check cannot catch a refactor that shifts the
   schedule deterministically. *)
let render_result r =
  let q h = Printf.sprintf "%.0f/%.0f" (Hist.quantile h 50.0) (Hist.quantile h 99.0) in
  Printf.sprintf "%d %d %d %d %d %d %s %s %s" r.Frontend.offered
    r.Frontend.accepted r.Frontend.shed_admission r.Frontend.shed_dequeue
    r.Frontend.completed r.Frontend.max_depth (q r.Frontend.sojourn)
    (q r.Frontend.wait) (q r.Frontend.service)

let test_frontend_golden () =
  List.iter
    (fun (policy, digest) ->
      let _, r = run_frontend ~policy ~rate:(1.5 *. capacity) () in
      Alcotest.(check string)
        (Admission.describe policy ^ ": " ^ render_result r)
        digest
        (Digest.to_hex (Digest.string (render_result r))))
    [
      (Admission.Unbounded, "eba584174f44da12ab7cfe63bff5446e");
      (Admission.Bounded 16, "5f05f6941e8618efb88eb451caacd0c4");
      ( Admission.Token_bucket { rate = 0.9 *. capacity; burst = 8.0 },
        "6e6ad9fe1312b8cce78c9c2138a0b60f" );
      ( Admission.Codel { target = 5e-5; interval = 2e-4 },
        "b375d57cd128d9025eae451790e34c5e" );
    ]

let test_frontend_unbounded_never_sheds () =
  let _, r = run_frontend ~policy:Admission.Unbounded ~rate:(2.0 *. capacity) () in
  Alcotest.(check int) "no shedding" 0 (Frontend.shed r);
  Alcotest.(check int) "all complete" r.Frontend.offered r.Frontend.completed

let test_frontend_bounded_caps_depth_and_p99 () =
  let over = 2.0 *. capacity in
  let _, unb = run_frontend ~policy:Admission.Unbounded ~rate:over () in
  let _, bnd = run_frontend ~policy:(Admission.Bounded 8) ~rate:over () in
  Alcotest.(check bool) "depth capped" true (bnd.Frontend.max_depth <= 8);
  Alcotest.(check bool) "sheds under overload" true (Frontend.shed bnd > 0);
  let p99 r = Hist.quantile r.Frontend.sojourn 99.0 in
  (* 2x overload, 800 arrivals: the unbounded queue's p99 dwarfs the
     8-deep bounded queue's. *)
  Alcotest.(check bool) "p99 bounded" true (p99 unb > 3.0 *. p99 bnd)

let test_frontend_wait_split_recorded () =
  let engine, r =
    run_frontend ~policy:Admission.Unbounded ~rate:(1.2 *. capacity) ()
  in
  let kv = fake_kv ~service:1e-5 in
  let wait_get = Kv.wait_histogram engine kv Kv.Get in
  Alcotest.(check bool) "get waits recorded" true (Hist.count wait_get > 0);
  let reg = Engine.stats engine in
  List.iter
    (fun k ->
      if Stats.find reg k = None then Alcotest.failf "metric %s missing" k)
    [
      "frontend.wait"; "frontend.service"; "frontend.sojourn";
      "frontend.queue.depth"; "frontend.offered"; "frontend.accepted";
      "frontend.shed.admission"; "frontend.shed.dequeue";
      "frontend.completed"; "frontend.goodput"; "frontend.shed";
      "kv.fake.get.wait";
    ];
  (* Wait + service = sojourn, up to histogram rounding, op by op. *)
  Alcotest.(check int) "wait count = completions" r.Frontend.completed
    (Hist.count r.Frontend.wait)

let test_frontend_deterministic () =
  let run () =
    let _, r = run_frontend ~policy:(Admission.Bounded 8) ~rate:(1.5 *. capacity) () in
    ( r.Frontend.completed,
      Frontend.shed r,
      r.Frontend.max_depth,
      Hist.quantile r.Frontend.sojourn 99.0 )
  in
  if run () <> run () then Alcotest.fail "same seed, different run"

let prop_bounded_never_exceeds_bound =
  qcase ~count:25 "bounded depth never exceeds bound"
    QCheck.(pair (int_range 1 32) (int_range 5 30))
    (fun (bound, tenths) ->
      let rate = float_of_int tenths /. 10.0 *. capacity in
      let _, r =
        run_frontend ~ops:400 ~policy:(Admission.Bounded bound) ~rate ()
      in
      r.Frontend.max_depth <= bound
      && r.Frontend.offered = r.Frontend.accepted + r.Frontend.shed_admission
      && r.Frontend.accepted = r.Frontend.completed + r.Frontend.shed_dequeue)

let prop_token_bucket_respects_budget =
  qcase ~count:25 "token bucket accepts at most burst + rate x duration"
    QCheck.(pair (int_range 1 16) (int_range 5 30))
    (fun (burst, tenths) ->
      let rate = float_of_int tenths /. 10.0 *. capacity in
      let tb_rate = 0.5 *. capacity in
      let _, r =
        run_frontend ~ops:400
          ~policy:
            (Admission.Token_bucket { rate = tb_rate; burst = float_of_int burst })
          ~rate ()
      in
      let budget =
        float_of_int burst +. (tb_rate *. r.Frontend.duration) +. 1.0
      in
      float_of_int r.Frontend.accepted <= budget
      && r.Frontend.offered = r.Frontend.accepted + r.Frontend.shed_admission)

let () =
  Alcotest.run "frontend"
    [
      ( "arrival",
        [
          case "poisson moments" test_poisson_moments;
          case "mmpp moments" test_mmpp_moments;
          case "diurnal moments" test_diurnal_moments;
          case "gaps positive, schedule sorted"
            test_arrival_gaps_positive_and_schedule_sorted;
          case "deterministic" test_arrival_deterministic;
        ] );
      ( "admission",
        [
          case "parse" test_policy_parse;
          case "bounded" test_bounded_semantics;
          case "token bucket" test_token_bucket_semantics;
          case "codel" test_codel_semantics;
          case "codel drain resets" test_codel_drain_resets;
          case "codel re-entry matches fresh" test_codel_reentry_matches_fresh;
        ] );
      ( "frontend",
        [
          case "accounting" test_frontend_accounting;
          case "golden digests" test_frontend_golden;
          case "unbounded never sheds" test_frontend_unbounded_never_sheds;
          case "bounded caps depth and p99"
            test_frontend_bounded_caps_depth_and_p99;
          case "wait split recorded" test_frontend_wait_split_recorded;
          case "deterministic" test_frontend_deterministic;
          prop_bounded_never_exceeds_bound;
          prop_token_bucket_respects_budget;
        ] );
    ]
