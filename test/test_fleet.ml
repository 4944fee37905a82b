(* Tests for the process fleet: merge determinism under any worker count
   and completion order, failure ordering and failure paths (a failing
   job, a killed worker, an unmarshalable result), long-lived workers
   answering [map] after [map], worker GC accounting, and that every
   worker is reaped. *)

open Helpers
open Prism_fleet

(* Every farm and walk reaps its workers before returning. *)
let check_reaped what =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "%s: child %d left unreaped" what pid

(* ---- farm: id-indexed merge ---- *)

let test_map_serial_order () =
  (* [trace] is the coordinator's: jobs that ran in a forked worker
     would leave it empty. *)
  let trace = ref [] in
  let r =
    Fleet.farm ~jobs:1 8 (fun i ->
        trace := i :: !trace;
        i * i)
  in
  Alcotest.(check (array int)) "results by id"
    (Array.init 8 (fun i -> i * i))
    r;
  Alcotest.(check (list int)) "jobs 1 runs inline, ascending"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !trace)

let test_map_parallel_matches_serial () =
  (* Unequal work so completion order differs from id order; results
     must still land by id. *)
  let job i =
    let acc = ref 0 in
    for k = 0 to 1000 * ((i * 7 mod 5) + 1) do
      acc := !acc + ((i * k) mod 97)
    done;
    (i, !acc)
  in
  let serial = Fleet.farm ~jobs:1 17 job in
  List.iter
    (fun jobs ->
      let par = Fleet.farm ~jobs 17 job in
      check_reaped (Printf.sprintf "jobs=%d" jobs);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches serial" jobs)
        true (par = serial))
    [ 2; 3; 4 ]

let test_map_empty_and_single () =
  Alcotest.(check (array int)) "n=0" [||] (Fleet.farm ~jobs:4 0 (fun i -> i));
  Alcotest.(check (array int)) "n=1" [| 42 |] (Fleet.farm ~jobs:4 1 (fun _ -> 42))

exception Boom of int

let test_map_failure_smallest_id () =
  (* Jobs 2 and 5 fail; whatever the completion order, the reported
     failure is job 2's, with the text a serial run gives it. *)
  let failure jobs f =
    match Fleet.farm ~jobs 8 f with
    | _ -> Alcotest.fail "expected a failure"
    | exception e ->
        check_reaped (Printf.sprintf "jobs=%d" jobs);
        e
  in
  List.iter
    (fun jobs ->
      let got =
        failure jobs (fun i ->
            if i = 2 || i = 5 then failwith (Printf.sprintf "boom %d" i);
            i)
      in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d smallest id, printed as serial" jobs)
        (Printexc.to_string (Failure "boom 2"))
        (Printexc.to_string got);
      let got =
        failure jobs (fun i ->
            if i = 2 || i = 5 then raise (Boom i);
            i)
      in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d prints as serial" jobs)
        (Printexc.to_string (Boom 2))
        (Printexc.to_string got))
    [ 1; 2; 4 ]

let test_killed_worker_names_job () =
  (* A job that kills its own worker must fail the farm, naming the job,
     rather than hang it. *)
  List.iter
    (fun jobs ->
      match
        Fleet.farm ~jobs 6 (fun i ->
            if i = 3 then Unix.kill (Unix.getpid ()) Sys.sigkill;
            i)
      with
      | _ -> Alcotest.fail "expected a failure"
      | exception Failure msg ->
          check_reaped (Printf.sprintf "jobs=%d" jobs);
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d names job 3" jobs)
            "Fleet: the worker running job 3 was killed by SIGKILL" msg)
    [ 2; 4 ]

let test_closure_result_fails () =
  (* A closure cannot cross the pipe: that job fails, the coordinator
     carries on to report it. *)
  match
    Fleet.farm ~jobs:2 4 (fun i -> if i = 1 then Some (fun () -> i) else None)
  with
  | _ -> Alcotest.fail "expected a failure"
  | exception e ->
      check_reaped "closure";
      Alcotest.(check string) "marshalling error"
        "Invalid_argument(\"output_value: functional value\")"
        (Printexc.to_string e)

(* ---- map on long-lived workers ---- *)

(* A job whose run time varies with [x], so completion order differs
   from request order. *)
let spin x =
  let acc = ref 0 in
  for k = 0 to 20_000 * ((x * 7 mod 5) + 1) do
    acc := !acc + (k land 7)
  done;
  ignore (Sys.opaque_identity !acc);
  x

let test_map_request_order () =
  Fleet.with_workers ~jobs:3 spin (fun w ->
      Alcotest.(check (array int)) "answers in request order"
        (Array.init 10 (fun i -> 10 - i))
        (Fleet.map w (Array.init 10 (fun i -> 10 - i))));
  check_reaped "map order"

let test_map_failure_after_settling () =
  (* Request 0 fails at once while the others are still running; each
     of those leaves a marker file as it finishes, so every marker being
     there when [map] raises shows that it waited for all of them. *)
  let dir = Filename.temp_file "fleet" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let marker x = Filename.concat dir (string_of_int x) in
  let job x =
    if x = 0 then raise (Boom 0);
    ignore (spin (x * 50));
    close_out (open_out (marker x));
    x
  in
  let got =
    Fleet.with_workers ~jobs:2 job (fun w ->
        match Fleet.map w (Array.init 6 Fun.id) with
        | _ -> Alcotest.fail "expected a failure"
        | exception e -> Printexc.to_string e)
  in
  check_reaped "map failure";
  let others = [ 1; 2; 3; 4; 5 ] in
  let settled = List.for_all (fun x -> Sys.file_exists (marker x)) others in
  List.iter
    (fun x -> if Sys.file_exists (marker x) then Sys.remove (marker x))
    others;
  Sys.rmdir dir;
  Alcotest.(check string) "worker's text" (Printexc.to_string (Boom 0)) got;
  Alcotest.(check bool) "every request settled before the raise" true settled

let test_map_reuses_workers () =
  (* A failed [map] leaves the workers ready: the same ones answer the
     next [map] in full, as a DPOR walk's batches rely on. *)
  Fleet.with_workers ~jobs:2
    (fun x -> if x = 7 then raise (Boom 7) else spin x)
    (fun w ->
      (match Fleet.map w [| 1; 7; 3; 4 |] with
      | _ -> Alcotest.fail "expected a failure"
      | exception e ->
          Alcotest.(check string) "worker's text" (Printexc.to_string (Boom 7))
            (Printexc.to_string e));
      Alcotest.(check (array int)) "second map answers in full"
        (Array.init 9 (fun i -> i + 10))
        (Fleet.map w (Array.init 9 (fun i -> i + 10))));
  check_reaped "map reuse"

(* ---- qcheck: stable merge over real workers ---- *)

let test_parallel_interleaving_qcheck =
  qcase ~count:25 "real pool: varying job sizes, stable merge"
    QCheck.(pair (int_bound 2) (int_bound 11))
    (fun (jobs_minus_2, n_minus_1) ->
      let jobs = jobs_minus_2 + 2 and n = n_minus_1 + 1 in
      let job i =
        (* Spin a pseudo-random amount so completion order varies. *)
        let spin = (i * 2654435761) land 0xFFF in
        let acc = ref 0 in
        for k = 0 to spin do
          acc := !acc + k
        done;
        (i, !acc)
      in
      Fleet.farm ~jobs n job = Array.init n job)

(* ---- Stats GC aggregation ---- *)

let test_foreign_gc_flush () =
  (* Words a worker allocates must reach the coordinator's
     process.gc.minor_words gauge through the answers. *)
  let open Prism_sim in
  let stats = Stats.create () in
  Stats.register_gc stats;
  let words () =
    match Stats.find stats "process.gc.minor_words" with
    | Some (Stats.Gauge f) -> (
        match f () with
        | Stats.Float w -> w
        | _ -> Alcotest.fail "minor_words gauge is not a float")
    | _ -> Alcotest.fail "process.gc.minor_words not registered"
  in
  let before = words () in
  let lengths =
    Fleet.farm ~jobs:2 2 (fun _ ->
        let acc = ref [] in
        for i = 1 to 50_000 do
          acc := i :: !acc
        done;
        List.length !acc)
  in
  let noted = words () -. before in
  check_reaped "gc";
  Alcotest.(check (array int)) "job results" [| 50_000; 50_000 |] lengths;
  (* Two jobs of 50k 3-word cons cells, which the coordinator never
     allocated itself. *)
  Alcotest.(check bool)
    (Printf.sprintf "workers' minor words reach the gauge (got %.0f)" noted)
    true (noted >= 300_000.0)

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

let () =
  Alcotest.run "fleet"
    [
      ( "map",
        [
          case "serial pool runs inline ascending" test_map_serial_order;
          case "parallel matches serial" test_map_parallel_matches_serial;
          case "empty and single" test_map_empty_and_single;
          case "smallest failing id wins" test_map_failure_smallest_id;
          case "killed worker names its job" test_killed_worker_names_job;
          case "closure result fails its job" test_closure_result_fails;
        ] );
      ( "workers",
        [
          case "map answers in request order" test_map_request_order;
          case "map raises after every request settles"
            test_map_failure_after_settling;
          case "map reuses the workers" test_map_reuses_workers;
        ] );
      ("determinism", [ test_parallel_interleaving_qcheck ]);
      ( "gc",
        [
          case "worker flush reaches gauges" test_foreign_gc_flush;
          case "gauges registered" test_gc_gauges_present;
        ] );
    ]
