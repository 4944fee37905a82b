(* Tests for the open-loop front-end: admission policies (parsing, unit
   semantics and run invariants) and the queue-wait telemetry split. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_frontend
open Helpers

(* ---- admission policies: parsing and unit semantics ---- *)

let test_policy_parse () =
  let parse s = Frontend.of_string ~servers:8 s in
  (match parse "bounded=64" with
  | Ok (Frontend.Bounded 64) -> ()
  | _ -> Alcotest.fail "bounded=64");
  (match parse "bounded" with
  | Ok (Frontend.Bounded b) ->
      Alcotest.(check int) "default bound = 25 x servers" 200 b
  | _ -> Alcotest.fail "bounded default");
  (match parse "unbounded" with
  | Ok Frontend.Unbounded -> ()
  | _ -> Alcotest.fail "unbounded");
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [
      "bounded=0"; "bounded=x"; "token-bucket=-1"; "codel=5"; "lifo";
      "token-bucket"; "codel"; "codel=10:100"; "bounded=8:2";
    ]

let test_bounded_semantics () =
  let p = Frontend.Bounded 4 in
  Alcotest.(check bool) "below bound" true (Frontend.admits p ~depth:3);
  Alcotest.(check bool) "at bound" false (Frontend.admits p ~depth:4)

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
  let arng = Rng.split rng in
  let gen = Ycsb.create Ycsb.ycsb_b ~records:200 ~theta:0.99 ~value_size:16 rng in
  let trace =
    Trace.record_timed gen
      ~gap:(fun () -> Rng.exponential arng ~mean:(1.0 /. rate))
      ~ops
  in
  (engine, Frontend.run ~servers engine kv ~policy ~offered_rate:rate ~trace)

(* servers / service = 4 / 10us = 400k ops/s analytic capacity. *)
let capacity = 4.0 /. 1e-5

let test_frontend_accounting () =
  List.iter
    (fun policy ->
      let _, r = run_frontend ~policy ~rate:(1.5 *. capacity) () in
      Alcotest.(check int) "offered = trace" 800 r.Frontend.offered;
      Alcotest.(check int) "offered = accepted + shed" r.Frontend.offered
        (r.Frontend.accepted + r.Frontend.shed);
      Alcotest.(check int) "accepted = completed" r.Frontend.accepted
        r.Frontend.completed;
      Alcotest.(check int) "sojourns = completions" r.Frontend.completed
        (Hist.count r.Frontend.sojourn);
      Alcotest.(check bool) "goodput positive" true (r.Frontend.goodput > 0.0))
    [ Frontend.Unbounded; Frontend.Bounded 16 ]

(* Every count plus the p50/p99 of sojourn, wait and service, pinned per
   policy to digests that every refactor of [Frontend.run] must keep: a
   rerun-equals-rerun check cannot catch a refactor that shifts the
   schedule deterministically. The literal 0 fills the slot of a dequeue
   shed count the front-end no longer has, so the digests stay those of
   the parent layout. *)
let render_result r =
  let q h = Printf.sprintf "%.0f/%.0f" (Hist.quantile h 50.0) (Hist.quantile h 99.0) in
  Printf.sprintf "%d %d %d 0 %d %d %s %s %s" r.Frontend.offered
    r.Frontend.accepted r.Frontend.shed
    r.Frontend.completed r.Frontend.max_depth (q r.Frontend.sojourn)
    (q r.Frontend.wait) (q r.Frontend.service)

let test_frontend_golden () =
  List.iter
    (fun (policy, digest) ->
      let _, r = run_frontend ~policy ~rate:(1.5 *. capacity) () in
      Alcotest.(check string)
        (Frontend.describe policy ^ ": " ^ render_result r)
        digest
        (Digest.to_hex (Digest.string (render_result r))))
    [
      (Frontend.Unbounded, "eba584174f44da12ab7cfe63bff5446e");
      (Frontend.Bounded 16, "5f05f6941e8618efb88eb451caacd0c4");
    ]

let test_frontend_unbounded_never_sheds () =
  let _, r = run_frontend ~policy:Frontend.Unbounded ~rate:(2.0 *. capacity) () in
  Alcotest.(check int) "no shedding" 0 r.Frontend.shed;
  Alcotest.(check int) "all complete" r.Frontend.offered r.Frontend.completed

let test_frontend_bounded_caps_depth_and_p99 () =
  let over = 2.0 *. capacity in
  let _, unb = run_frontend ~policy:Frontend.Unbounded ~rate:over () in
  let _, bnd = run_frontend ~policy:(Frontend.Bounded 8) ~rate:over () in
  Alcotest.(check bool) "depth capped" true (bnd.Frontend.max_depth <= 8);
  Alcotest.(check bool) "sheds under overload" true (bnd.Frontend.shed > 0);
  let p99 r = Hist.quantile r.Frontend.sojourn 99.0 in
  (* 2x overload, 800 arrivals: the unbounded queue's p99 dwarfs the
     8-deep bounded queue's. *)
  Alcotest.(check bool) "p99 bounded" true (p99 unb > 3.0 *. p99 bnd)

let test_frontend_wait_split_recorded () =
  let engine, r =
    run_frontend ~policy:Frontend.Unbounded ~rate:(1.2 *. capacity) ()
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
      "frontend.shed.admission"; "frontend.completed"; "frontend.goodput"; "frontend.shed";
      "kv.fake.get.wait";
    ];
  (* Wait + service = sojourn, up to histogram rounding, op by op. *)
  Alcotest.(check int) "wait count = completions" r.Frontend.completed
    (Hist.count r.Frontend.wait)

let test_frontend_deterministic () =
  let run () =
    let _, r = run_frontend ~policy:(Frontend.Bounded 8) ~rate:(1.5 *. capacity) () in
    ( r.Frontend.completed,
      r.Frontend.shed,
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
        run_frontend ~ops:400 ~policy:(Frontend.Bounded bound) ~rate ()
      in
      r.Frontend.max_depth <= bound
      && r.Frontend.offered = r.Frontend.accepted + r.Frontend.shed
      && r.Frontend.accepted = r.Frontend.completed)

let () =
  Alcotest.run "frontend"
    [
      ( "admission",
        [
          case "parse" test_policy_parse;
          case "bounded" test_bounded_semantics;
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
        ] );
    ]
