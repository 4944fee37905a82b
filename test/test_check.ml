(* Tests for the prism_check subsystem: schedule control, history
   recording, the linearizability checker, and the crash-point sweep.
   These are the fast tier-1 checks; the full sweeps live behind
   bin/prism_check.exe. *)

open Prism_sim
open Prism_check
open Helpers

(* ---- engine schedule control ---- *)

let test_heap_clear () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:(float_of_int i) ~seq:i i
  done;
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.pop_min h = None);
  Heap.push h ~time:1.0 ~seq:0 42;
  (match Heap.pop_min h with
  | Some (_, _, v) -> Alcotest.(check int) "usable after clear" 42 v
  | None -> Alcotest.fail "push after clear lost")

let test_clear_pending () =
  let engine = Engine.create () in
  let ran = ref 0 in
  Engine.spawn engine (fun () ->
      Engine.delay 1.0;
      incr ran);
  Engine.clear_pending engine;
  ignore (Engine.run engine);
  Alcotest.(check int) "cleared event never ran" 0 !ran

(* A little simulation with plenty of same-instant ties: [n] processes
   all delay by the same amounts and append to a trace. *)
let tie_heavy_trace tie =
  let engine = Engine.create () in
  Engine.set_tie_break engine tie;
  let trace = Buffer.create 64 in
  for p = 0 to 4 do
    Engine.spawn engine (fun () ->
        for step = 0 to 3 do
          Engine.delay 1.0;
          Buffer.add_string trace (Printf.sprintf "%d.%d;" p step)
        done)
  done;
  let clock = Engine.run engine in
  (Buffer.contents trace, clock, Engine.recorded_choices engine)

let test_fifo_default_unchanged () =
  let t1, _, c1 = tie_heavy_trace Engine.Fifo in
  let t2, _, _ = tie_heavy_trace Engine.Fifo in
  Alcotest.(check string) "FIFO deterministic" t1 t2;
  Alcotest.(check int) "FIFO records no choices" 0 (Array.length c1);
  (* Scheduling order: process 0's step before process 1's, every round. *)
  Alcotest.(check string) "FIFO is scheduling order"
    "0.0;1.0;2.0;3.0;4.0;" (String.sub t1 0 20)

let test_seeded_explores () =
  let t1, _, _ = tie_heavy_trace (Engine.Seeded 1L) in
  let t2, _, _ = tie_heavy_trace (Engine.Seeded 2L) in
  let t1', _, _ = tie_heavy_trace (Engine.Seeded 1L) in
  Alcotest.(check string) "same seed, same schedule" t1 t1';
  Alcotest.(check bool) "different seeds diverge" true (t1 <> t2)

let test_replay_reproduces () =
  let t1, clock1, choices = tie_heavy_trace (Engine.Seeded 99L) in
  Alcotest.(check bool) "ties were hit" true (Array.length choices > 0);
  let t2, clock2, _ = tie_heavy_trace (Engine.Replay choices) in
  Alcotest.(check string) "replay reproduces the schedule" t1 t2;
  check_approx "replay clock" clock2 clock1

let test_replay_exhausted_degrades () =
  (* An empty recording must fall back to FIFO rather than crash. *)
  let t_fifo, _, _ = tie_heavy_trace Engine.Fifo in
  let t_replay, _, _ = tie_heavy_trace (Engine.Replay [||]) in
  Alcotest.(check string) "exhausted replay = FIFO" t_fifo t_replay

let test_guided_tie () =
  (* Guided choosing index 0 everywhere IS the FIFO schedule; choosing the
     last member diverges, and the recorded decisions replay it. *)
  let t_fifo, _, _ = tie_heavy_trace Engine.Fifo in
  let t_first, _, _ =
    tie_heavy_trace (Engine.Guided (fun _ -> 0))
  in
  Alcotest.(check string) "guided-first is FIFO" t_fifo t_first;
  let t_last, _, choices =
    tie_heavy_trace (Engine.Guided (fun alts -> Array.length alts - 1))
  in
  Alcotest.(check bool) "guided-last diverges" true (t_last <> t_fifo);
  Alcotest.(check bool) "guided decisions recorded" true
    (Array.length choices > 0);
  let t_replay, _, _ = tie_heavy_trace (Engine.Replay choices) in
  Alcotest.(check string) "guided schedule replays" t_last t_replay

let test_ivar_timeout_no_leak () =
  ignore
    (in_sim (fun _engine ->
         let ivar = Sync.Ivar.create () in
         for _ = 1 to 50 do
           match Sync.Ivar.read_with_timeout ivar 1e-6 with
           | None -> ()
           | Some _ -> Alcotest.fail "ivar was never filled"
         done;
         Alcotest.(check int) "no dead waiters accumulate" 0
           (Sync.Ivar.waiters ivar)))

(* ---- linearizability checker ---- *)

let ev op tid call outcome inv resp =
  (* Synthetic histories: derive virtual-time endpoints from the logical
     stamps — the checker only reads them for reporting. *)
  {
    History.op;
    tid;
    call;
    outcome;
    inv;
    resp;
    inv_time = float_of_int inv;
    resp_time = float_of_int resp;
  }

let v1 = Bytes.of_string "v1-payload"

let v2 = Bytes.of_string "v2-payload"

let put k v = History.Put (k, v)

let got v = History.Got v

let check_ok ?init name events =
  match Linearize.check ?init (Array.of_list events) with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "%s: expected linearizable, got: %s" name e.Linearize.reason

let check_bad ?init name events =
  match Linearize.check ?init (Array.of_list events) with
  | Ok () -> Alcotest.failf "%s: violation not detected" name
  | Error _ -> ()

let test_linearize_sequential () =
  check_ok "seq"
    [
      ev 0 0 (put "k" v1) History.Ok_unit 0 1;
      ev 1 0 (History.Get "k") (got (Some v1)) 2 3;
      ev 2 0 (History.Delete "k") (History.Existed true) 4 5;
      ev 3 0 (History.Get "k") (got None) 6 7;
      ev 4 0 (History.Delete "k") (History.Existed false) 8 9;
    ]

let test_linearize_concurrent_ok () =
  (* A get overlapping a put may see either value. *)
  check_ok "old value"
    [
      ev 0 0 (put "k" v1) History.Ok_unit 0 1;
      ev 1 0 (put "k" v2) History.Ok_unit 2 10;
      ev 2 1 (History.Get "k") (got (Some v1)) 3 4;
    ];
  check_ok "new value"
    [
      ev 0 0 (put "k" v1) History.Ok_unit 0 1;
      ev 1 0 (put "k" v2) History.Ok_unit 2 10;
      ev 2 1 (History.Get "k") (got (Some v2)) 3 4;
    ]

let test_linearize_stale_read () =
  (* v1 was overwritten strictly before the get began. *)
  check_bad "stale"
    [
      ev 0 0 (put "k" v1) History.Ok_unit 0 1;
      ev 1 0 (put "k" v2) History.Ok_unit 2 3;
      ev 2 1 (History.Get "k") (got (Some v1)) 4 5;
    ]

let test_linearize_resurrected_delete () =
  check_bad "resurrected"
    [
      ev 0 0 (put "k" v1) History.Ok_unit 0 1;
      ev 1 0 (History.Delete "k") (History.Existed true) 2 3;
      ev 2 1 (History.Get "k") (got (Some v1)) 4 5;
    ]

let test_linearize_phantom_read () =
  check_bad "phantom" [ ev 0 0 (History.Get "k") (got (Some v1)) 0 1 ]

let test_linearize_init () =
  let init k = if k = "k" then Some v1 else None in
  check_ok ~init "preloaded value readable"
    [ ev 0 0 (History.Get "k") (got (Some v1)) 0 1 ];
  check_ok ~init "preloaded key deletable"
    [
      ev 0 0 (History.Delete "k") (History.Existed true) 0 1;
      ev 1 0 (History.Get "k") (got None) 2 3;
    ];
  check_bad ~init "preloaded key is not absent"
    [ ev 0 0 (History.Delete "k") (History.Existed false) 0 1 ]

let test_linearize_scan () =
  let scan items = History.Items items in
  check_ok "scan prefix"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v2) History.Ok_unit 2 3;
      ev 2 1 (History.Scan ("a", 2)) (scan [ ("a", v1); ("b", v2) ]) 4 5;
    ];
  check_bad "scan unwritten value"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 1 (History.Scan ("a", 2)) (scan [ ("a", v2) ]) 2 3;
    ];
  check_bad "scan unsorted"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v2) History.Ok_unit 2 3;
      ev 2 1 (History.Scan ("a", 2)) (scan [ ("b", v2); ("a", v1) ]) 4 5;
    ]

(* ---- scheduling labels & recording ---- *)

let test_label_tid_widening () =
  let call = History.Put ("k", v1) in
  let l0 = History.op_label ~tid:0 call in
  let l127 = History.op_label ~tid:127 call in
  let l128 = History.op_label ~tid:128 call in
  (* The old 7-bit layout aliased tid 128 onto tid 0. *)
  Alcotest.(check bool) "tids 0/128 no longer alias" true (l0 <> l128);
  Alcotest.(check bool) "tids 127/128 distinct" true (l127 <> l128);
  Alcotest.(check bool) "max tid still labels" true
    (History.op_label ~tid:History.max_tid call <> 0);
  (match History.op_label ~tid:(History.max_tid + 1) call with
  | _ -> Alcotest.fail "tid beyond max_tid must fail loudly"
  | exception Invalid_argument _ -> ());
  match History.op_label ~tid:(-1) call with
  | _ -> Alcotest.fail "negative tid must fail loudly"
  | exception Invalid_argument _ -> ()

let test_label_scan_conflicts () =
  let lbl tid c = History.op_label ~tid c in
  let scan_b = lbl 0 (History.Scan ("kb", 8)) in
  let put_a = lbl 1 (History.Put ("ka", v1)) in
  let put_b = lbl 1 (History.Put ("kb", v1)) in
  let put_c = lbl 1 (History.Put ("kc", v1)) in
  let get_c = lbl 1 (History.Get "kc") in
  let scan_a = lbl 1 (History.Scan ("ka", 8)) in
  Alcotest.(check bool) "write below scan start commutes" false
    (History.conflicting scan_b put_a);
  Alcotest.(check bool) "write at scan start conflicts" true
    (History.conflicting scan_b put_b);
  Alcotest.(check bool) "conflict is symmetric" true
    (History.conflicting put_b scan_b);
  Alcotest.(check bool) "write above scan start conflicts" true
    (History.conflicting scan_b put_c);
  Alcotest.(check bool) "scan vs read commutes" false
    (History.conflicting scan_b get_c);
  Alcotest.(check bool) "scan vs scan commutes" false
    (History.conflicting scan_b scan_a);
  Alcotest.(check bool) "unlabelled conflicts with everything" true
    (History.conflicting 0 put_a)

exception Boom

let test_record_exception_safe () =
  ignore
    (in_sim (fun engine ->
         let hist = History.create () in
         let kv =
           {
             Prism_harness.Kv.name = "raising";
             stat_prefix = "raising";
             put = (fun ~tid:_ _ _ -> raise Boom);
             get = (fun ~tid:_ _ -> None);
             delete = (fun ~tid:_ _ -> false);
             scan = (fun ~tid:_ _ _ -> []);
             quiesce = (fun () -> ());
             recover = None;
           }
         in
         let kv = History.wrap hist kv in
         let sentinel = History.op_label ~tid:7 (History.Get "outer") in
         Engine.annotate engine sentinel;
         (match kv.Prism_harness.Kv.put ~tid:0 "k" v1 with
         | () -> Alcotest.fail "wrapped op should have raised"
         | exception Boom -> ());
         Alcotest.(check int) "annotation restored across the raise" sentinel
           (Engine.annotation engine);
         Alcotest.(check int) "no phantom event recorded" 0
           (Array.length (History.events hist));
         Engine.annotate engine 0))

(* ---- strict scan snapshots ---- *)

(* Each anomaly here slips through the weak per-item conditions and must
   be rejected by the strict atomic-snapshot search — the checker-teeth
   regressions of the scan soundness fix. *)
let check_strict_bad ?init ?init_keys name events =
  let events = Array.of_list events in
  (match Linearize.check ?init ?init_keys ~scans:`Weak events with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "%s: weak checker should accept this history, got: %s"
        name e.Linearize.reason);
  match Linearize.check ?init ?init_keys events with
  | Ok () -> Alcotest.failf "%s: strict checker missed the anomaly" name
  | Error _ -> ()

let scan_items items = History.Items items

let test_scan_ghost () =
  (* The scan starts after the delete responded, yet returns "b". *)
  check_strict_bad "deleted-key ghost"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v1) History.Ok_unit 2 3;
      ev 2 0 (History.Delete "b") (History.Existed true) 4 5;
      ev 3 1 (History.Scan ("a", 8)) (scan_items [ ("a", v1); ("b", v1) ]) 6 7;
    ]

let test_scan_torn () =
  (* "a" was overwritten before the scan began: returning the old "a"
     with the current "b" mixes two points in time. *)
  check_strict_bad "torn snapshot"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v1) History.Ok_unit 2 3;
      ev 2 0 (put "a" v2) History.Ok_unit 4 5;
      ev 3 1 (History.Scan ("a", 8)) (scan_items [ ("a", v1); ("b", v1) ]) 6 7;
    ]

let test_scan_missing () =
  (* "b" is provably present at every candidate snapshot point and inside
     the scanned range, but the scan skipped it. *)
  check_strict_bad "missing in-range key"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v1) History.Ok_unit 2 3;
      ev 2 0 (put "c" v1) History.Ok_unit 4 5;
      ev 3 1 (History.Scan ("a", 8)) (scan_items [ ("a", v1); ("c", v1) ]) 6 7;
    ]

let test_scan_missing_preloaded () =
  (* A preloaded key nobody ever wrote is constantly present, so a
     covering scan that omits it is wrong — checkable only because
     [init_keys] enumerates the preload domain. *)
  let init k = if k = "b" then Some v1 else None in
  check_strict_bad ~init ~init_keys:[ "b" ] "preloaded key omitted"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 1 (History.Scan ("a", 8)) (scan_items [ ("a", v1) ]) 2 3;
    ]

let test_scan_strict_accepts () =
  (* A count-capped scan legitimately cuts the range off at its last
     returned key. *)
  check_ok "count cap bounds the range"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v1) History.Ok_unit 2 3;
      ev 2 0 (put "c" v1) History.Ok_unit 4 5;
      ev 3 1 (History.Scan ("a", 2)) (scan_items [ ("a", v1); ("b", v1) ]) 6 7;
    ];
  (* A put overlapping the scan may be invisible... *)
  check_ok "concurrent put invisible"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v1) History.Ok_unit 2 10;
      ev 2 1 (History.Scan ("a", 8)) (scan_items [ ("a", v1) ]) 3 4;
    ];
  (* ... or visible. *)
  check_ok "concurrent put visible"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v1) History.Ok_unit 2 10;
      ev 2 1 (History.Scan ("a", 8)) (scan_items [ ("a", v1); ("b", v1) ]) 3 4;
    ];
  (* A delete overlapping the scan: the scan may linearize first. *)
  check_ok "concurrent delete not yet applied"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "b" v1) History.Ok_unit 2 3;
      ev 2 0 (History.Delete "b") (History.Existed true) 4 10;
      ev 3 1 (History.Scan ("a", 8)) (scan_items [ ("a", v1); ("b", v1) ]) 5 6;
    ]

(* Reference store with genuinely atomic operations: state changes and
   scans happen between engine delays, at one instant. Every history it
   can produce is linearizable with atomic-snapshot scans, whatever the
   schedule — the soundness half of the strict checker's contract. *)
let atomic_kv tbl =
  let take n l = List.filteri (fun i _ -> i < n) l in
  {
    Prism_harness.Kv.name = "atomic";
    stat_prefix = "atomic";
    put =
      (fun ~tid:_ k v ->
        Engine.delay 1.0;
        Hashtbl.replace tbl k (Bytes.copy v);
        Engine.delay 1.0);
    get =
      (fun ~tid:_ k ->
        Engine.delay 1.0;
        let r = Hashtbl.find_opt tbl k in
        Engine.delay 1.0;
        r);
    delete =
      (fun ~tid:_ k ->
        Engine.delay 1.0;
        let existed = Hashtbl.mem tbl k in
        Hashtbl.remove tbl k;
        Engine.delay 1.0;
        existed);
    scan =
      (fun ~tid:_ from n ->
        Engine.delay 1.0;
        let items =
          Hashtbl.fold
            (fun k v acc ->
              if String.compare k from >= 0 then (k, v) :: acc else acc)
            tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> take n
        in
        Engine.delay 1.0;
        items);
    quiesce = (fun () -> ());
    recover = None;
  }

let test_scan_strict_implies_weak =
  qcase ~count:30 "strict and weak both accept atomic-store runs"
    QCheck.(
      triple
        (list_of_size (Gen.return 6) (int_bound 15))
        (list_of_size (Gen.return 6) (int_bound 15))
        small_int)
    (fun (p0, p1, seed) ->
      let decode i =
        let k = Printf.sprintf "sk%d" (i land 3) in
        match (i lsr 2) land 3 with
        | 0 -> `Put k
        | 1 -> `Delete k
        | 2 -> `Scan k
        | _ -> `Get k
      in
      let engine = Engine.create () in
      Engine.set_tie_break engine (Engine.Seeded (Int64.of_int (seed + 1)));
      let hist = History.create () in
      let tbl = Hashtbl.create 16 in
      let kv = History.wrap hist (atomic_kv tbl) in
      let version = ref 0 in
      List.iteri
        (fun tid prog ->
          Engine.spawn engine (fun () ->
              List.iter
                (fun i ->
                  match decode i with
                  | `Put k ->
                      incr version;
                      kv.Prism_harness.Kv.put ~tid k
                        (Bytes.of_string (Printf.sprintf "v%d" !version))
                  | `Delete k -> ignore (kv.Prism_harness.Kv.delete ~tid k)
                  | `Scan k -> ignore (kv.Prism_harness.Kv.scan ~tid k 3)
                  | `Get k -> ignore (kv.Prism_harness.Kv.get ~tid k))
                prog))
        [ p0; p1 ];
      ignore (Engine.run engine);
      let events = History.events hist in
      Linearize.check events = Ok ()
      && Linearize.check ~scans:`Weak events = Ok ())

(* ---- whole-run determinism (qcheck) ---- *)

(* Two runs of the same seeded schedule must agree on everything
   observable: final virtual clock, events executed, history length, and
   the store's operation statistics. *)
let store_run ~tie_seed ~seed =
  let engine = Engine.create () in
  Engine.set_tie_break engine (Engine.Seeded tie_seed);
  let store_ref = ref None in
  Engine.spawn engine (fun () ->
      let cfg =
        {
          (Prism_core.Config.scaled ~threads:3 ~keys:64 ~value_size:64
             Prism_core.Config.default)
          with
          Prism_core.Config.seed;
        }
      in
      let store = Prism_core.Store.create engine cfg in
      store_ref := Some store;
      let rng = Rng.create seed in
      for tid = 0 to 2 do
        Engine.spawn engine (fun () ->
            for i = 0 to 39 do
              let k = key (Rng.int rng 64) in
              if i mod 3 = 0 then ignore (Prism_core.Store.get store ~tid k)
              else Prism_core.Store.put store ~tid k (value i)
            done)
      done);
  let clock = Engine.run engine in
  (* [Store.stats] snapshots live counters; take it after the run. *)
  let s = Prism_core.Store.stats (Option.get !store_ref) in
  ( clock,
    Engine.events_executed engine,
    ( s.Prism_core.Store.puts,
      s.Prism_core.Store.gets,
      s.Prism_core.Store.svc_hits,
      s.Prism_core.Store.pwb_hits,
      s.Prism_core.Store.vs_reads,
      s.Prism_core.Store.misses ) )

let test_determinism_qcheck =
  qcase ~count:10 "same seed, same run (clock, events, store stats)"
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let tie_seed = Int64.of_int ((a * 65_537) + 1) in
      let seed = Int64.of_int ((b * 257) + 1) in
      let r1 = store_run ~tie_seed ~seed in
      let r2 = store_run ~tie_seed ~seed in
      r1 = r2)

(* ---- explore ---- *)

let explore_cfg =
  {
    Explore.default with
    Explore.threads = 3;
    records = 48;
    ops_per_thread = 16;
    seed = 42L;
  }

let test_explore_clean () =
  let report = Explore.run ~schedules:4 explore_cfg in
  Alcotest.(check int) "ran all schedules" 4
    (List.length report.Explore.schedules);
  Alcotest.(check bool) "schedules differ" true (report.Explore.distinct > 1);
  (match report.Explore.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "clean store reported a violation: %s"
        f.Explore.violation);
  (* Same master seed, same report. *)
  let report' = Explore.run ~schedules:4 explore_cfg in
  Alcotest.(check bool) "exploration is reproducible" true
    (List.map
       (fun s -> (s.Explore.tie_seed, s.Explore.fingerprint))
       report.Explore.schedules
    = List.map
        (fun s -> (s.Explore.tie_seed, s.Explore.fingerprint))
        report'.Explore.schedules)

let test_explore_catches_stale_cache () =
  let cfg =
    { Explore.default with Explore.fault = Explore.Skip_svc_invalidate; seed = 42L }
  in
  let report = Explore.run ~schedules:3 cfg in
  match report.Explore.failures with
  | [] ->
      Alcotest.fail
        "disabled SVC invalidation survived the linearizability check"
  | f :: _ ->
      (* The reported tie seed must replay to the same verdict. *)
      let replayed = Explore.replay cfg ~tie_seed:f.Explore.stats.Explore.tie_seed in
      Alcotest.(check bool) "failure replays from its seed" true
        (replayed <> None)

let test_explore_kvell () =
  let report =
    Explore.run ~schedules:3 { explore_cfg with Explore.store = `Kvell }
  in
  Alcotest.(check int) "kvell schedules" 3
    (List.length report.Explore.schedules);
  Alcotest.(check bool) "kvell linearizable" true
    (report.Explore.failures = [])

(* ---- DPOR exploration ---- *)

(* A lockstep micro-program: [threads] processes, each executing a fixed
   list of (key, is_write) steps separated by equal delays, so the two
   threads' step [i] always land in the same tie set. The schedule space
   is exactly one binary decision per instant, which makes the
   Mazurkiewicz classes countable by hand: instants whose two steps
   conflict (same key, >= 1 writer) contribute a factor of 2, independent
   instants contribute 1. *)
let micro_key k = Printf.sprintf "k%d" k

let micro_call k w =
  if w then History.Put (micro_key k, Bytes.create 1)
  else History.Get (micro_key k)

let micro_run progs ~tie =
  let engine = Engine.create () in
  Engine.set_tie_break engine tie;
  let trace = ref [] in
  List.iteri
    (fun tid prog ->
      Engine.spawn engine (fun () ->
          List.iter
            (fun (k, w) ->
              Engine.annotate engine (History.op_label ~tid (micro_call k w));
              Engine.delay 1.0;
              trace := (tid, k, w) :: !trace;
              Engine.annotate engine 0)
            prog))
    progs;
  ignore (Engine.run engine);
  List.rev !trace

(* Canonical form of a micro-program trace: within each instant's pair,
   independent steps are normalized to tid order (they commute), while a
   conflicting pair keeps its execution order. Two traces are
   Mazurkiewicz-equivalent iff their canonical forms are equal. *)
let micro_canonical trace =
  let rec pairs = function
    | a :: b :: rest -> (a, b) :: pairs rest
    | [] -> []
    | [ _ ] -> Alcotest.fail "odd trace length"
  in
  List.map
    (fun (((t1, k1, w1) as a), ((t2, _, _) as b)) ->
      let (_, k2, w2) = b in
      let dep = k1 = k2 && (w1 || w2) in
      if dep || t1 <= t2 then (a, b) else (b, a))
    (pairs trace)

module Trace_set = Set.Make (struct
  type t = ((int * int * bool) * (int * int * bool)) list

  let compare = compare
end)

let micro_decode bits =
  (* 6 bits per thread: 3 steps x (key bit, write bit) *)
  List.init 3 (fun i ->
      ((bits lsr (2 * i)) land 1, (bits lsr ((2 * i) + 1)) land 1 = 1))

let test_dpor_micro_exact =
  qcase ~count:40 "DPOR = brute force on lockstep micro-programs"
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (b0, b1) ->
      let progs = [ micro_decode b0; micro_decode b1 ] in
      let run ~choose = micro_run progs ~tie:(Engine.Guided choose) in
      let dpor =
        Dpor.explore ~max_classes:64 ~dependent:History.conflicting run
      in
      let dpor' =
        Dpor.explore ~max_classes:64 ~dependent:History.conflicting run
      in
      let full =
        Dpor.explore ~full:true ~max_classes:4096
          ~dependent:History.conflicting run
      in
      let canon report =
        List.map (fun c -> micro_canonical c.Dpor.result) report.Dpor.classes
      in
      let dpor_canon = canon dpor in
      let dpor_set = Trace_set.of_list dpor_canon in
      let full_set = Trace_set.of_list (canon full) in
      let expected =
        List.fold_left2
          (fun n (k1, w1) (k2, w2) ->
            if k1 = k2 && (w1 || w2) then 2 * n else n)
          1 (List.nth progs 0) (List.nth progs 1)
      in
      dpor.Dpor.complete && full.Dpor.complete
      (* every maximal interleaving of dependent steps exactly once *)
      && List.length dpor_canon = Trace_set.cardinal dpor_set
      && Trace_set.equal dpor_set full_set
      && dpor.Dpor.explored = expected
      (* and deterministically so *)
      && canon dpor' = dpor_canon)

(* The PR 1 regression suite needed 3 blind seeded schedules to catch the
   skip-SVC-invalidation fault on its config. The budget assertion here:
   on a config where blind sampling still needs all 3 of those schedules,
   DPOR's systematic walk finds the same violation within a 2-class
   budget — strictly cheaper. The found failure must replay from its
   recorded decision list, and its report must carry the virtual-time
   window stamps. *)
let svc_budget_cfg =
  {
    Explore.default with
    Explore.threads = 4;
    records = 128;
    value_size = 64;
    ops_per_thread = 6;
    theta = 0.95;
    fault = Explore.Skip_svc_invalidate;
    seed = 33L;
  }

let blind_budget = 3 (* schedules PR 1's blind suite was allowed *)

let test_dpor_svc_budget () =
  let dpor_budget = 2 in
  Alcotest.(check bool) "dpor budget is under the blind budget" true
    (dpor_budget < blind_budget);
  let rep =
    Explore.run_dpor ~stop_on_failure:true ~max_classes:dpor_budget
      svc_budget_cfg
  in
  match rep.Explore.dpor_failures with
  | [] ->
      Alcotest.failf "dpor missed the SVC fault within %d classes" dpor_budget
  | f :: _ ->
      let blind = Explore.run ~schedules:blind_budget svc_budget_cfg in
      let blind_runs =
        match blind.Explore.failures with
        | [] ->
            Alcotest.failf "blind sampling missed the fault in %d schedules"
              blind_budget
        | g :: _ -> g.Explore.stats.Explore.index + 1
      in
      Alcotest.(check bool)
        (Printf.sprintf "dpor run %d < blind %d schedules"
           f.Explore.found_at_run blind_runs)
        true
        (f.Explore.found_at_run < blind_runs);
      (* the decision list is a standalone reproducer *)
      (match Explore.replay_choices svc_budget_cfg ~choices:f.Explore.choices with
      | Some _ -> ()
      | None -> Alcotest.fail "dpor failure does not replay from its choices");
      (* virtual-time endpoints surface in the report *)
      Alcotest.(check bool) "violation reports its virtual-time window" true
        (String.length f.Explore.violation >= 7
        && String.sub f.Explore.violation 0 7 = "window ")

(* Same budget argument for the crash-consistency fault: skip-HSIT-flush
   only manifests across a crash, so the DPOR walk drives the
   crash-at-boundary run via [prism_crash_once ~tie:(Guided _)]. PR 1's
   sweep scanned every [crash_every]-th persist boundary; pinning one
   boundary and exploring schedule classes finds the lost write within
   the same 2-class budget. *)
let hsit_sweep_cfg =
  {
    Crash_sweep.default with
    Crash_sweep.threads = 2;
    keys_per_thread = 12;
    ops_per_thread = 30;
    crash_every = 40;
    seed = 9L;
    fault_skip_hsit_flush = true;
  }

let test_dpor_hsit_budget () =
  let dpor_budget = 2 in
  Alcotest.(check bool) "dpor budget is under the blind budget" true
    (dpor_budget < blind_budget);
  let run ~choose =
    match
      Crash_sweep.prism_crash_once
        ~tie:(Engine.Guided choose)
        hsit_sweep_cfg ~boundary:`Nvm_persist ~target:11
    with
    | `Crashed violations -> List.length violations
    | `Completed _ | `Crashed_before_store -> 0
  in
  let rep =
    Dpor.explore
      ~stop_on:(fun n -> n > 0)
      ~max_classes:dpor_budget ~dependent:History.conflicting run
  in
  match List.find_opt (fun c -> c.Dpor.result > 0) rep.Dpor.classes with
  | None ->
      Alcotest.failf "dpor missed the HSIT fault within %d classes" dpor_budget
  | Some c ->
      Alcotest.(check bool) "found within budget runs" true
        (c.Dpor.run <= dpor_budget)

(* ---- scan faults under DPOR ---- *)

(* A scan-heavy slice of the workload: 1 in 4 reads becomes a scan, 1 in 6
   updates a delete, so scan/write races are dense enough for the faults
   to manifest within a tiny class budget. *)
let scan_fault_cfg fault =
  {
    Explore.default with
    Explore.scan_every = 4;
    delete_every = 6;
    seed = 1L;
    fault;
  }

let scan_budget = 2 (* same class budget the PR 2 fault suite runs under *)

(* Each injected scan anomaly must be (a) caught by the strict snapshot
   check within the budget, with a replayable decision list and a
   virtual-time window in the report, and (b) invisible to the legacy
   weak prefix conditions — the blind spot this PR closes. *)
let test_scan_fault name fault () =
  let cfg = scan_fault_cfg fault in
  let rep = Explore.run_dpor ~stop_on_failure:true ~max_classes:scan_budget cfg in
  (match rep.Explore.dpor_failures with
  | [] ->
      Alcotest.failf "strict checker missed %s within %d classes" name
        scan_budget
  | f :: _ ->
      (match Explore.replay_choices cfg ~choices:f.Explore.choices with
      | Some _ -> ()
      | None -> Alcotest.failf "%s failure does not replay" name);
      Alcotest.(check bool) "violation reports its virtual-time window" true
        (String.length f.Explore.violation >= 7
        && String.sub f.Explore.violation 0 7 = "window "));
  let weak =
    Explore.run_dpor ~max_classes:scan_budget
      { cfg with Explore.scan_check = `Weak }
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s is invisible to the weak checker" name)
    true
    (weak.Explore.dpor_failures = [])

(* The strict obligation must not over-reject: the same scan-heavy
   workload with no fault explores clean, on Prism and on KVell. *)
let test_scan_clean_strict () =
  List.iter
    (fun store ->
      let cfg = { (scan_fault_cfg Explore.No_fault) with Explore.store } in
      let rep = Explore.run_dpor ~max_classes:3 cfg in
      match rep.Explore.dpor_failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "clean %s store rejected by strict scan check: %s"
            (match store with `Prism -> "prism" | `Kvell -> "kvell")
            f.Explore.violation)
    [ `Prism; `Kvell ]

(* ---- frontier heuristic ---- *)

(* Two threads, three lockstep writes to one key: 8 classes, one binary
   decision per instant. DFS backtracking would spend a 4-class budget
   permuting the tail — every class starting with thread 0 — while the
   shallowest-first frontier revisits the root and covers both
   first-step orders. *)
let test_dpor_frontier_spread () =
  let progs = [ List.init 3 (fun _ -> (0, true)); List.init 3 (fun _ -> (0, true)) ] in
  let run ~choose = micro_run progs ~tie:(Engine.Guided choose) in
  let first_tids budget =
    let rep = Dpor.explore ~max_classes:budget ~dependent:History.conflicting run in
    ( List.sort_uniq compare
        (List.filter_map
           (fun c ->
             match c.Dpor.result with (tid, _, _) :: _ -> Some tid | [] -> None)
           rep.Dpor.classes),
      rep.Dpor.explored )
  in
  let front, front_n = first_tids 4 in
  Alcotest.(check int) "frontier completed its budget" 4 front_n;
  Alcotest.(check (list int)) "frontier covers both first-step orders"
    [ 0; 1 ] front;
  let _, front_all = first_tids 64 in
  Alcotest.(check int) "frontier exhausts to all 8 classes" 8 front_all

(* Golden walk of the default checker shape. The digest pins the exact
   class sequence — run numbers and every decision list — so a change to
   how the tree is stored or the frontier is kept must reproduce the
   walk byte for byte; a change that means to alter selection or class
   order has to re-pin it deliberately. *)
let test_dpor_golden_default () =
  let rep = Explore.run_dpor ~max_classes:8 Explore.default in
  Alcotest.(check (list int)) "classes/runs/pruned" [ 8; 8; 0 ]
    [ rep.Explore.classes; rep.Explore.runs; rep.Explore.pruned ];
  let walk =
    Dpor.explore ~max_classes:8 ~dependent:History.conflicting (fun ~choose ->
        Explore.run_tie Explore.default ~tie:(Engine.Guided choose))
  in
  Alcotest.(check (list int)) "same walk through Dpor directly"
    [ rep.Explore.classes; rep.Explore.runs; rep.Explore.pruned ]
    [ walk.Dpor.explored; walk.Dpor.runs; walk.Dpor.pruned ];
  let b = Buffer.create 65536 in
  List.iter
    (fun (c : _ Dpor.class_result) ->
      Buffer.add_string b (string_of_int c.Dpor.run);
      Buffer.add_char b ':';
      Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) c.Dpor.choices;
      Buffer.add_char b ';')
    walk.Dpor.classes;
  Alcotest.(check string) "class choices digest" "c1241b46fa635dbf8bb7f2cf632231fd"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---- shrinking ---- *)

(* A config where the SVC fault is genuinely schedule-dependent: the FIFO
   schedule passes, blind sampling fails at its 5th schedule, and the
   recorded failing schedule carries hundreds of non-FIFO tie decisions —
   of which exactly one is load-bearing. *)
let shrink_cfg = { svc_budget_cfg with Explore.seed = 5L }

let test_shrink_svc () =
  Alcotest.(check bool) "FIFO schedule passes on this config" true
    (Explore.replay_choices shrink_cfg ~choices:[||] = None);
  let rep = Explore.run ~schedules:8 shrink_cfg in
  let failure =
    match rep.Explore.failures with
    | [] -> Alcotest.fail "expected a seeded schedule to fail"
    | f :: _ -> f
  in
  let choices, violation =
    Explore.record shrink_cfg ~tie_seed:failure.Explore.stats.Explore.tie_seed
  in
  Alcotest.(check bool) "recorded schedule reproduces the violation" true
    (violation <> None);
  let non_fifo =
    Array.fold_left (fun n c -> if c <> 0 then n + 1 else n) 0 choices
  in
  Alcotest.(check bool) "recording departs from FIFO in many places" true
    (non_fifo > 100);
  match Explore.shrink shrink_cfg ~choices with
  | None -> Alcotest.fail "shrink lost the violation"
  | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "minimal schedule has <= 2 non-FIFO choices (got %d)"
           s.Explore.non_fifo)
        true
        (s.Explore.non_fifo <= 2 && s.Explore.non_fifo >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "shrinking stayed within the replay cap (%d)"
           s.Explore.replays)
        true (s.Explore.replays <= 200);
      (* the minimal list is a standalone reproducer *)
      Alcotest.(check bool) "minimal choices replay to a violation" true
        (Explore.replay_choices shrink_cfg ~choices:s.Explore.minimal <> None)

(* ---- crash sweep ---- *)

let sweep_cfg =
  {
    Crash_sweep.default with
    Crash_sweep.threads = 2;
    keys_per_thread = 12;
    ops_per_thread = 30;
    crash_every = 40;
    seed = 9L;
  }

let test_sweep_prism () =
  let report = Crash_sweep.run sweep_cfg in
  Alcotest.(check bool) "injected some crashes" true
    (report.Crash_sweep.crash_points > 0);
  match report.Crash_sweep.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "prism recovery violation at %s boundary %d: %s"
        v.Crash_sweep.boundary v.Crash_sweep.crash_point v.Crash_sweep.detail

let test_sweep_kvell () =
  let report =
    Crash_sweep.run { sweep_cfg with Crash_sweep.store = `Kvell }
  in
  Alcotest.(check bool) "injected some crashes" true
    (report.Crash_sweep.crash_points > 0);
  Alcotest.(check bool) "kvell recoveries consistent" true
    (report.Crash_sweep.violations = [])

let test_sweep_catches_lost_writes () =
  let report =
    Crash_sweep.run
      { sweep_cfg with Crash_sweep.fault_skip_hsit_flush = true; crash_every = 10 }
  in
  Alcotest.(check bool) "disabled HSIT flush loses acknowledged writes" true
    (report.Crash_sweep.violations <> [])

let lsm_sweep_cfg =
  { sweep_cfg with Crash_sweep.store = `Lsm; crash_every = 7 }

let test_sweep_lsm () =
  let report = Crash_sweep.run lsm_sweep_cfg in
  Alcotest.(check bool) "injected crashes at both boundary kinds" true
    (report.Crash_sweep.crash_points > 0
    && List.mem_assoc "wal-append" report.Crash_sweep.boundaries
    && List.mem_assoc "sstable-publish" report.Crash_sweep.boundaries);
  match report.Crash_sweep.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "LSM WAL recovery violation at %s boundary %d: %s"
        v.Crash_sweep.boundary v.Crash_sweep.crash_point v.Crash_sweep.detail

let test_sweep_lsm_no_wal () =
  (* Without the WAL, a crash at the first SSTable publish loses every
     acknowledged write still sitting in the volatile memtable. *)
  let report =
    Crash_sweep.run
      { lsm_sweep_cfg with Crash_sweep.lsm_wal = false; crash_every = 1 }
  in
  Alcotest.(check bool) "WAL-less LSM loses acknowledged writes" true
    (report.Crash_sweep.violations <> []);
  Alcotest.(check bool) "losses are at the publish boundary" true
    (List.for_all
       (fun v -> v.Crash_sweep.boundary = "sstable-publish")
       report.Crash_sweep.violations)

(* ---- hotness placement under the checkers ---- *)

(* Sized so reclamation actually runs mid-workload: promotions need
   Value-Storage reads, which need values to have left the PWBs first.
   At this scale the hotness run's tie-choice stream diverges from
   static's under the same seed (migration work interleaves with the
   clients); a smaller workload leaves the tier untouched and every
   placement check vacuous. *)
let hotness_explore_cfg =
  {
    Explore.default with
    Explore.placement = `Hotness;
    threads = 3;
    records = 64;
    ops_per_thread = 120;
    seed = 42L;
  }

let test_explore_hotness_clean () =
  let report = Explore.run ~schedules:3 hotness_explore_cfg in
  (match report.Explore.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "hotness schedule violation: %s" f.Explore.violation);
  (* Guard against vacuity: migration must actually change the tie-choice
     stream relative to static placement under the same seeds. *)
  let static_report =
    Explore.run ~schedules:3
      { hotness_explore_cfg with Explore.placement = `Static }
  in
  let choices r =
    List.map
      (fun (s : Explore.schedule_stats) -> s.Explore.choices)
      r.Explore.schedules
  in
  Alcotest.(check bool) "migration interleaves with client schedules" true
    (choices report <> choices static_report)

let test_dpor_hotness_clean () =
  let rep = Explore.run_dpor ~max_classes:4 hotness_explore_cfg in
  Alcotest.(check bool) "explored multiple classes" true
    (rep.Explore.classes >= 2);
  match rep.Explore.dpor_failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "hotness DPOR violation: %s" f.Explore.violation

(* Crash at EVERY durability boundary ([crash_every = 1]) — in
   particular inside every promote copy (the tier write is a counted
   nvm-persist) and between each copy and its HSIT coupling update. The
   value lives in Value Storage until the coupling flips, so no
   acknowledged write may be lost whichever side of the copy the power
   cut lands on. *)
let hotness_sweep_cfg =
  {
    Crash_sweep.default with
    Crash_sweep.placement = `Hotness;
    threads = 2;
    keys_per_thread = 12;
    ops_per_thread = 120;
    crash_every = 1;
    seed = 9L;
  }

let test_sweep_hotness () =
  let hot = Crash_sweep.run hotness_sweep_cfg in
  Alcotest.(check bool) "injected many crash points" true
    (hot.Crash_sweep.crash_points > 100);
  (match hot.Crash_sweep.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "hotness recovery violation at %s boundary %d: %s"
        v.Crash_sweep.boundary v.Crash_sweep.crash_point v.Crash_sweep.detail);
  (* Clean-run boundary counts prove the sweep covered promote copies:
     they are extra nvm-persists the static run doesn't perform. *)
  let static =
    Crash_sweep.run
      { hotness_sweep_cfg with Crash_sweep.placement = `Static;
        crash_every = 100_000 }
  in
  let nvm r = List.assoc "nvm-persist" r.Crash_sweep.boundaries in
  Alcotest.(check bool) "promote copies add persist boundaries" true
    (nvm hot > nvm static)

let test_sweep_hotness_catches_lost_writes () =
  (* The sweep is not vacuous under hotness: the deliberate persist-
     protocol bug still reads as lost acknowledged writes. *)
  let report =
    Crash_sweep.run
      { hotness_sweep_cfg with Crash_sweep.fault_skip_hsit_flush = true;
        crash_every = 10 }
  in
  Alcotest.(check bool) "disabled HSIT flush loses acknowledged writes" true
    (report.Crash_sweep.violations <> [])

(* ---- fleet determinism ----

   The [?jobs] paths promise reports (and progress sequences) that are
   structurally identical to the serial run for any worker count. The
   reports are plain records of ints/floats/lists, so [=] is the
   byte-identity the CLI-level [cmp] checks rely on. *)

let test_fleet_explore_deterministic () =
  let trace jobs =
    let seen = ref [] in
    let report =
      Explore.run ~jobs ~schedules:6
        ~progress:(fun s -> seen := s :: !seen)
        { Explore.default with Explore.threads = 3; ops_per_thread = 20 }
    in
    (report, List.rev !seen)
  in
  let serial = trace 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "explore report+progress identical at jobs=%d" jobs)
        true
        (trace jobs = serial))
    [ 2; 4 ]

let test_fleet_dpor_deterministic () =
  (* A faulting config (the svc-budget one, known to violate within a
     small class budget), so the failure lists (class index,
     found_at_run, choice arrays) are compared too, not just the
     counters. *)
  let cfg = svc_budget_cfg in
  let trace jobs =
    let seen = ref [] in
    let report =
      Explore.run_dpor ~jobs ~max_classes:8
        ~progress:(fun s -> seen := s :: !seen)
        cfg
    in
    (report, List.rev !seen)
  in
  let serial = trace 1 in
  Alcotest.(check bool) "workload faults under DPOR" true
    ((fst serial).Explore.dpor_failures <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "dpor report+progress identical at jobs=%d" jobs)
        true
        (trace jobs = serial))
    [ 2; 4 ]

let test_fleet_sweep_deterministic () =
  let cfg = { sweep_cfg with Crash_sweep.crash_every = 13 } in
  let serial = Crash_sweep.run ~jobs:1 cfg in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "crash-sweep report identical at jobs=%d" jobs)
        true
        (Crash_sweep.run ~jobs cfg = serial))
    [ 2; 4 ]

let test_dpor_mispredict_tail_deterministic () =
  (* Three lockstep writers on one key: every instant is a 3-way fully
     dependent tie set, so each committed run creates shallow frontier
     nodes that preempt the speculative window's in-flight predictions.
     This is the mispredict path whose tail used to be discarded
     wholesale instead of re-predicted; the regression it guards: class
     set, run numbering and commit sequence must stay byte-identical to
     the serial walk even when every refill mispredicts, on a budget
     large enough to refill the window several times. *)
  let progs = List.init 3 (fun _ -> [ (0, true); (0, true); (0, true) ]) in
  let run ~choose = micro_run progs ~tie:(Engine.Guided choose) in
  let walk jobs =
    let commits = ref [] in
    let report =
      Prism_fleet.Fleet.with_pool ~jobs (fun pool ->
          Dpor.explore ~pool
            ~on_commit:(fun ~run:r result -> commits := (r, result) :: !commits)
            ~max_classes:20 ~dependent:History.conflicting run)
    in
    (report, List.rev !commits)
  in
  let serial, serial_commits = walk 1 in
  Alcotest.(check bool) "budget exceeds every speculative window" true
    (serial.Dpor.runs > 2 * 4);
  Alcotest.(check int) "budget truncates the walk" 20 serial.Dpor.explored;
  List.iter
    (fun jobs ->
      let par, par_commits = walk jobs in
      Alcotest.(check bool)
        (Printf.sprintf "class list identical at jobs=%d" jobs)
        true
        (List.map
           (fun c ->
             (c.Dpor.index, c.Dpor.run, c.Dpor.depth, c.Dpor.choices,
              c.Dpor.result))
           par.Dpor.classes
        = List.map
            (fun c ->
              (c.Dpor.index, c.Dpor.run, c.Dpor.depth, c.Dpor.choices,
               c.Dpor.result))
            serial.Dpor.classes);
      Alcotest.(check int)
        (Printf.sprintf "run count identical at jobs=%d" jobs)
        serial.Dpor.runs par.Dpor.runs;
      Alcotest.(check int)
        (Printf.sprintf "pruned count identical at jobs=%d" jobs)
        serial.Dpor.pruned par.Dpor.pruned;
      Alcotest.(check bool)
        (Printf.sprintf "commit sequence identical at jobs=%d" jobs)
        true
        (par_commits = serial_commits))
    [ 2; 3; 4 ]

let () =
  Alcotest.run "check"
    [
      ( "schedule-control",
        [
          case "heap clear" test_heap_clear;
          case "engine clear_pending" test_clear_pending;
          case "fifo default unchanged" test_fifo_default_unchanged;
          case "seeded tie-break explores" test_seeded_explores;
          case "replay reproduces" test_replay_reproduces;
          case "exhausted replay degrades to fifo"
            test_replay_exhausted_degrades;
          case "guided tie-break" test_guided_tie;
          case "ivar timeout leaves no waiters" test_ivar_timeout_no_leak;
        ] );
      ( "linearize",
        [
          case "sequential history" test_linearize_sequential;
          case "concurrent put/get" test_linearize_concurrent_ok;
          case "stale read rejected" test_linearize_stale_read;
          case "resurrected delete rejected" test_linearize_resurrected_delete;
          case "phantom read rejected" test_linearize_phantom_read;
          case "preloaded initial values" test_linearize_init;
          case "scan monotonic prefix" test_linearize_scan;
        ] );
      ( "history-labels",
        [
          case "tid widening kills aliasing" test_label_tid_widening;
          case "scan/write range conflicts" test_label_scan_conflicts;
          case "record is exception-safe" test_record_exception_safe;
        ] );
      ( "scan-strict",
        [
          case "deleted-key ghost rejected" test_scan_ghost;
          case "torn snapshot rejected" test_scan_torn;
          case "missing in-range key rejected" test_scan_missing;
          case "omitted preloaded key rejected" test_scan_missing_preloaded;
          case "legitimate scans accepted" test_scan_strict_accepts;
          test_scan_strict_implies_weak;
        ] );
      ("determinism", [ test_determinism_qcheck ]);
      ( "explore",
        [
          case "clean store linearizable" test_explore_clean;
          case "stale-cache fault caught" test_explore_catches_stale_cache;
          case "kvell" test_explore_kvell;
        ] );
      ( "dpor",
        [
          test_dpor_micro_exact;
          case "svc fault within budget" test_dpor_svc_budget;
          case "hsit fault within budget" test_dpor_hsit_budget;
          case "frontier spreads a truncated budget" test_dpor_frontier_spread;
          case "default walk matches its golden digest" test_dpor_golden_default;
        ] );
      ( "scan-faults",
        [
          case "stale snapshot caught strict, missed weak"
            (test_scan_fault "scan-stale" Explore.Scan_stale_snapshot);
          case "skipped PWB caught strict, missed weak"
            (test_scan_fault "scan-skip-pwb" Explore.Scan_skip_pwb);
          case "dropped key caught strict, missed weak"
            (test_scan_fault "scan-drop" Explore.Scan_drop_key);
          case "clean scan-heavy runs stay linearizable"
            test_scan_clean_strict;
        ] );
      ("shrink", [ case "svc failure shrinks to one choice" test_shrink_svc ]);
      ( "crash-sweep",
        [
          case "prism recovers every point" test_sweep_prism;
          case "kvell recovers every point" test_sweep_kvell;
          case "hsit fault caught" test_sweep_catches_lost_writes;
          case "lsm wal recovers every point" test_sweep_lsm;
          case "lsm without wal loses writes" test_sweep_lsm_no_wal;
        ] );
      ( "placement",
        [
          case "hotness schedules linearizable" test_explore_hotness_clean;
          case "hotness dpor classes linearizable" test_dpor_hotness_clean;
          case "hotness recovers every boundary" test_sweep_hotness;
          case "hotness hsit fault caught" test_sweep_hotness_catches_lost_writes;
        ] );
      ( "fleet-determinism",
        [
          case "explore identical across jobs" test_fleet_explore_deterministic;
          case "dpor identical across jobs" test_fleet_dpor_deterministic;
          case "crash-sweep identical across jobs" test_fleet_sweep_deterministic;
          case "mispredicted speculative tails re-predicted"
            test_dpor_mispredict_tail_deterministic;
        ] );
    ]
