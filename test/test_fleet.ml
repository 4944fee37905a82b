(* Tests for the domain fleet: merge determinism under arbitrary worker
   counts and completion interleavings, failure ordering, the
   coordinator-helps protocol, and the OCaml 5 GC-gauge aggregation the
   fleet relies on. *)

open Helpers
open Prism_fleet

(* ---- map: id-indexed merge ---- *)

let test_map_serial_order () =
  let pool = Fleet.create ~jobs:1 in
  let trace = ref [] in
  let r =
    Fleet.map pool 8 (fun i ->
        trace := i :: !trace;
        i * i)
  in
  Fleet.shutdown pool;
  Alcotest.(check (array int)) "results by id"
    (Array.init 8 (fun i -> i * i))
    r;
  Alcotest.(check (list int)) "serial pool runs inline, ascending"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !trace)

let test_map_parallel_matches_serial () =
  (* The job function simulates unequal work so completion order differs
     from id order; results must still land by id. *)
  let job i =
    let acc = ref 0 in
    for k = 0 to 1000 * ((i * 7 mod 5) + 1) do
      acc := !acc + ((i * k) mod 97)
    done;
    (i, !acc)
  in
  let serial = Fleet.with_pool ~jobs:1 (fun p -> Fleet.map p 17 job) in
  List.iter
    (fun jobs ->
      let par = Fleet.with_pool ~jobs (fun p -> Fleet.map p 17 job) in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches serial" jobs)
        true (par = serial))
    [ 2; 3; 4 ]

let test_map_empty_and_single () =
  Fleet.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "n=0" [||] (Fleet.map p 0 (fun i -> i));
      Alcotest.(check (array int)) "n=1" [| 42 |]
        (Fleet.map p 1 (fun _ -> 42)))

exception Boom of int

let test_map_failure_smallest_id () =
  (* Jobs 2 and 5 fail; whatever the interleaving, the reported failure
     must be job 2's. *)
  List.iter
    (fun jobs ->
      let got =
        try
          ignore
            (Fleet.with_pool ~jobs (fun p ->
                 Fleet.map p 8 (fun i ->
                     if i = 2 || i = 5 then raise (Boom i);
                     i)));
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d reports smallest failing id" jobs)
        (Some 2) got)
    [ 1; 2; 4 ]

(* ---- submit/await: coordinator helping ---- *)

let test_await_helps_when_unclaimed () =
  (* A serial-sized... rather: a 2-lane pool whose single worker is held
     busy by a gate; awaiting an unclaimed job must run it inline on the
     coordinator instead of deadlocking. *)
  let gate = Atomic.make false in
  Fleet.with_pool ~jobs:2 (fun p ->
      let blocker =
        Fleet.submit p (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            "unblocked")
      in
      let quick = Fleet.submit p (fun () -> Domain.self ()) in
      (* The worker is (very likely) parked in the blocker; the await
         below must claim [quick] and run it here. Correctness does not
         depend on the race: whoever runs it, the result returns. *)
      let ran_on = Fleet.await p quick in
      Atomic.set gate true;
      Alcotest.(check string) "blocker completes" "unblocked"
        (Fleet.await p blocker);
      ignore ran_on)

let test_await_reraises () =
  Fleet.with_pool ~jobs:2 (fun p ->
      let fu = Fleet.submit p (fun () -> raise (Boom 7)) in
      match Fleet.await p fu with
      | exception Boom 7 -> ()
      | exception _ -> Alcotest.fail "wrong exception"
      | _ -> Alcotest.fail "expected failure")

let test_peek_settles () =
  Fleet.with_pool ~jobs:2 (fun p ->
      let fu = Fleet.submit p (fun () -> 9) in
      let v = Fleet.await p fu in
      Alcotest.(check int) "await" 9 v;
      match Fleet.peek fu with
      | Some (Ok 9) -> ()
      | _ -> Alcotest.fail "peek after settle")

(* ---- qcheck: merge preserves job-id order for arbitrary
   completion interleavings ---- *)

(* Model the merge discipline directly: jobs finish in an arbitrary
   permutation (the generated interleaving), each writing to its id slot;
   the merged output must equal the id-ordered results whatever the
   permutation. This is the exact argument the parallel consumers lean
   on, kept as a property so a future "optimisation" reordering the
   merge gets caught. *)
let test_merge_order_qcheck =
  qcase ~count:200 "work-stealing merge is interleaving-invariant"
    QCheck.(pair (int_bound 30) (list_of_size Gen.(return 40) small_int))
    (fun (n, perm_seed) ->
      let n = n + 2 in
      (* Build a permutation of 0..n-1 from the seed list. *)
      let order = Array.init n (fun i -> i) in
      List.iteri
        (fun k s ->
          let i = k mod n and j = s mod n in
          let t = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- t)
        perm_seed;
      (* "Complete" jobs in permuted order into id slots. *)
      let slots = Array.make n (-1) in
      Array.iter (fun id -> slots.(id) <- id * 3) order;
      (* Merge = read slots in id order; must be interleaving-invariant. *)
      slots = Array.init n (fun i -> i * 3))

let test_parallel_interleaving_qcheck =
  qcase ~count:25 "real pool: varying job sizes, stable merge"
    QCheck.(pair (int_bound 2) (int_bound 11))
    (fun (jobs_minus_2, n_minus_1) ->
      let jobs = jobs_minus_2 + 2 and n = n_minus_1 + 1 in
      let job i =
        (* Spin proportional to a pseudo-random amount so completion
           order varies run to run. *)
        let spin = (i * 2654435761) land 0xFFF in
        let acc = ref 0 in
        for k = 0 to spin do
          acc := !acc + k
        done;
        (i, !acc)
      in
      let expected = Array.init n job in
      let got = Fleet.with_pool ~jobs (fun p -> Fleet.map p n job) in
      got = expected)

(* ---- Stats GC aggregation (OCaml 5 per-domain counters) ---- *)

let test_foreign_gc_flush () =
  (* A worker-domain job that allocates must become visible to the
     process.gc.minor_words gauge via the fleet's flush, even though
     OCaml 5 keeps minor counters per-domain (and never folds a joined
     domain's words into the coordinator's counter). *)
  let open Prism_sim in
  let stats = Stats.create () in
  Stats.register_gc stats;
  let before = Stats.foreign_gc_words () in
  Fleet.with_pool ~jobs:2 (fun p ->
      let fu =
        Fleet.submit p (fun () ->
            (* Force the job onto the worker: the coordinator never
               claims because the worker is idle and we give it time by
               awaiting settle passively. *)
            let acc = ref [] in
            for i = 1 to 50_000 do
              acc := i :: !acc
            done;
            List.length !acc)
      in
      (* Passive wait so the coordinator does not claim-and-run inline
         (which would put the words in our own domain counter). *)
      let rec wait () =
        match Fleet.peek fu with
        | Some (Ok n) -> n
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None ->
            Domain.cpu_relax ();
            wait ()
      in
      Alcotest.(check int) "job result" 50_000 (wait ()));
  let flushed = Stats.foreign_gc_words () - before in
  (* 50k 3-word cons cells: at least 150k words must have been flushed
     by the worker. *)
  Alcotest.(check bool)
    (Printf.sprintf "worker flushed its minor words (got %d)" flushed)
    true
    (flushed >= 150_000);
  (* And the gauge must include the accumulator. *)
  match Stats.find stats "process.gc.minor_words" with
  | Some (Stats.Gauge f) -> (
      match f () with
      | Stats.Float w ->
          Alcotest.(check bool) "gauge >= own + flushed" true
            (w >= float_of_int flushed)
      | _ -> Alcotest.fail "minor_words gauge is not a float")
  | _ -> Alcotest.fail "process.gc.minor_words not registered"

let test_gc_gauges_present () =
  let open Prism_sim in
  let stats = Stats.create () in
  Stats.register_gc stats;
  List.iter
    (fun name ->
      match Stats.find stats name with
      | Some _ -> ()
      | None -> Alcotest.failf "%s missing" name)
    [
      "process.gc.minor_words";
      "process.gc.minor_collections";
      "process.gc.major_collections";
      "process.gc.heap_words";
    ]

(* ---- engine isolation across domains ---- *)

let test_engine_domain_isolation () =
  (* Two domains each run their own engine concurrently; Engine.current
     is domain-local, so both simulations must complete with their own
     clocks and the DLS binding never leaks across. *)
  let open Prism_sim in
  let run_sim salt () =
    let e = Engine.create () in
    let ticks = ref 0 in
    Engine.spawn e (fun () ->
        for _ = 1 to 100 do
          Engine.delay (0.001 *. float_of_int (salt + 1));
          incr ticks;
          (* current () must resolve to this domain's engine. *)
          assert (Engine.current () == e)
        done);
    let t = Engine.run e in
    (!ticks, t)
  in
  let d = Domain.spawn (run_sim 1) in
  let a = run_sim 0 () in
  let b = Domain.join d in
  Alcotest.(check int) "domain-0 ticks" 100 (fst a);
  Alcotest.(check int) "domain-1 ticks" 100 (fst b);
  check_approx "domain-0 clock" (snd a) 0.1;
  check_approx "domain-1 clock" (snd b) 0.2

let () =
  Alcotest.run "fleet"
    [
      ( "map",
        [
          case "serial pool runs inline ascending" test_map_serial_order;
          case "parallel matches serial" test_map_parallel_matches_serial;
          case "empty and single" test_map_empty_and_single;
          case "smallest failing id wins" test_map_failure_smallest_id;
        ] );
      ( "futures",
        [
          case "await helps on unclaimed jobs" test_await_helps_when_unclaimed;
          case "await reraises" test_await_reraises;
          case "peek after settle" test_peek_settles;
        ] );
      ( "determinism",
        [ test_merge_order_qcheck; test_parallel_interleaving_qcheck ] );
      ( "gc",
        [
          case "worker flush reaches gauges" test_foreign_gc_flush;
          case "gauges registered" test_gc_gauges_present;
        ] );
      ( "domains",
        [ case "engines are domain-isolated" test_engine_domain_isolation ] );
    ]
