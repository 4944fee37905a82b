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
  Alcotest.(check bool) "empty after clear" true (heap_pop h = None);
  Heap.push h ~time:1.0 ~seq:0 42;
  (match heap_pop h with
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
    tie_heavy_trace (Engine.Guided (fun _ _ -> 0))
  in
  Alcotest.(check string) "guided-first is FIFO" t_fifo t_first;
  let t_last, _, choices =
    tie_heavy_trace (Engine.Guided (fun _ n -> n - 1))
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

(* A crash cut ops off at stamp 4: a pending op may or may not have
   taken effect, and the scan after recovery sees the outcome. *)
let test_linearize_pending () =
  let scan items = History.Items items in
  check_bad "pending batch recovered half-applied"
    [
      ev 0 0 (History.Batch [ ("a", v1); ("b", v2) ]) History.Pending 0 4;
      ev 1 1 (History.Scan ("a", 8)) (scan [ ("a", v1) ]) 5 6;
    ];
  check_ok "pending batch recovered whole"
    [
      ev 0 0 (History.Batch [ ("a", v1); ("b", v2) ]) History.Pending 0 4;
      ev 1 1 (History.Scan ("a", 8)) (scan [ ("a", v1); ("b", v2) ]) 5 6;
    ];
  let acked_then_pending survivor =
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (put "a" v2) History.Pending 2 4;
      ev 2 1 (History.Scan ("a", 8)) (scan [ ("a", survivor) ]) 5 6;
    ]
  in
  check_ok "pending put survived" (acked_then_pending v2);
  check_ok "pending put lost" (acked_then_pending v1);
  check_ok "pending delete survived"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 0 (History.Delete "a") History.Pending 2 4;
      ev 2 1 (History.Scan ("a", 8)) (scan []) 5 6;
    ];
  check_bad "acked put missing after the cut"
    [
      ev 0 0 (put "a" v1) History.Ok_unit 0 1;
      ev 1 1 (put "b" v2) History.Pending 2 4;
      ev 2 1 (History.Scan ("a", 8)) (scan [ ("b", v2) ]) 5 6;
    ];
  check_bad "pending put cannot land after a read past the cut"
    [
      ev 0 0 (put "a" v2) History.Pending 0 4;
      ev 1 1 (History.Get "a") (got None) 5 6;
      ev 2 1 (History.Get "a") (got (Some v2)) 7 8;
    ]

(* Memo keys name a put by its op index: two orders of the same two
   overlapping puts leave the same linearized set and different
   writers, so the keys must tell the writers apart even when their
   indices agree in their low byte. Op 256's put, then op 0's, explains
   the read; the search tries op 0's first, memoizes that order's dead
   end, and must not mistake the good order for it. *)
let test_linearize_memo_wide_ops () =
  check_ok "writers 256 ops apart"
    [
      ev 0 0 (put "k" v1) History.Ok_unit 0 10;
      ev 256 1 (put "k" v2) History.Ok_unit 1 11;
      ev 257 0 (History.Get "k") (got (Some v1)) 12 13;
    ]

(* Memo sizing guard. Each key's search (and each scan component's)
   keeps a memo of dead-end configurations; on the checker's histories
   most keys see a few operations, so the memos must start small. A
   preallocated 1024-bucket table per key lands straight in the major
   heap — about 131k words for 128 keys — and dominated the checker's
   major-heap traffic. The bound counts words allocated directly in the
   major heap (promotions excluded), which does not depend on when minor
   collections happen to run. *)
let test_linearize_memo_major_words () =
  let keys = 128 in
  let history =
    List.init keys (fun i ->
        let k = Printf.sprintf "key%04d" i in
        let base = 20 * i in
        [
          (0, put k v1, History.Ok_unit, base, base + 3);
          (1, put k v2, History.Ok_unit, base + 1, base + 4);
          (2, History.Get k, got (Some v2), base + 2, base + 10);
        ]
        @
        if i mod 16 = 0 then
          [ (3, History.Scan (k, 1), History.Items [ (k, v2) ], base + 11, base + 12) ]
        else [])
    |> List.concat
    |> List.mapi (fun op (tid, call, outcome, inv, resp) ->
           ev op tid call outcome inv resp)
    |> Array.of_list
  in
  let direct () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = direct () in
  let result = Linearize.check history in
  let words = direct () -. before in
  Alcotest.(check bool) "history is linearizable" true (Result.is_ok result);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated in the major heap < 1024" words)
    true (words < 1024.0)

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

(* Reports name a value by its version stamp, or by its size when it
   has none. *)
let test_pp_values () =
  let stamped version =
    Prism_workload.Ycsb.value_for ~size:64 ~key:"k" ~version
  in
  let show pp x = Format.asprintf "%a" pp x in
  Alcotest.(check string) "stamped put" "put k v37"
    (show History.pp_call (put "k" (stamped 37)));
  Alcotest.(check string) "unstamped put" "put k (10 B)"
    (show History.pp_call (put "k" v1));
  Alcotest.(check string) "batch" "batch {a v3, b (10 B)}"
    (show History.pp_call (History.Batch [ ("a", stamped 3); ("b", v1) ]));
  Alcotest.(check string) "get outcome"
    "[0] tid1 get k -> Some v0 (inv 2@2.000000s, resp 3@3.000000s)"
    (show History.pp_event
       (ev 0 1 (History.Get "k") (got (Some (stamped 0))) 2 3))

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

(* A violation found by the snapshot search (or its static preload
   shortcut) rather than by a per-key search or the per-item scan
   pre-filter. *)
let snapshot_reason reason =
  String.starts_with ~prefix:"scan is not an atomic snapshot" reason
  || String.starts_with ~prefix:"scan missed in-range key" reason

(* Each anomaly here passes the per-key searches and the per-item scan
   conditions, and must be rejected by the atomic-snapshot search — the
   checker-teeth regressions of the scan soundness fix. *)
let check_strict_bad ?init ?init_keys name events =
  match Linearize.check ?init ?init_keys (Array.of_list events) with
  | Ok () -> Alcotest.failf "%s: strict checker missed the anomaly" name
  | Error e ->
      if not (snapshot_reason e.Linearize.reason) then
        Alcotest.failf "%s: rejected outside the snapshot search: %s" name
          e.Linearize.reason

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

let test_scan_atomic_store_accepted =
  qcase ~count:30 "atomic-store runs are accepted"
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
      Linearize.check events = Ok ())

(* ---- brute-force reference ---- *)

(* The oracle tries every order that respects real time against a
   sequential map where scans and batches are atomic; an aborted batch
   is a no-op. A pending op (cut off by a crash) either takes effect or
   is a no-op; a pending read is always a no-op. Exponential, so only
   for histories of a handful of ops. *)
let oracle ~init events =
  let n = Array.length events in
  let lookup m k = match List.assoc_opt k m with Some v -> v | None -> init k in
  let set m k v = (k, v) :: List.remove_assoc k m in
  let keys = [ "a"; "b"; "c" ] in
  let apply m (e : History.event) =
    match (e.History.call, e.History.outcome) with
    | History.Put (k, v), History.Ok_unit -> Some (set m k (Some v))
    | History.Get k, History.Got r ->
        if Option.equal Bytes.equal (lookup m k) r then Some m else None
    | History.Delete k, History.Existed x ->
        if Option.is_some (lookup m k) = x then Some (set m k None) else None
    | History.Batch ws, History.Committed true ->
        Some (List.fold_left (fun m (k, v) -> set m k (Some v)) m ws)
    | History.Batch _, History.Committed false -> Some m
    | History.Put (k, v), History.Pending -> Some (set m k (Some v))
    | History.Delete k, History.Pending -> Some (set m k None)
    | History.Batch ws, History.Pending ->
        Some (List.fold_left (fun m (k, v) -> set m k (Some v)) m ws)
    | (History.Get _ | History.Scan _), History.Pending -> Some m
    | History.Scan (from, count), History.Items items ->
        let live =
          List.filter_map
            (fun k ->
              if String.compare k from >= 0 then
                Option.map (fun v -> (k, v)) (lookup m k)
              else None)
            keys
        in
        let expect = List.filteri (fun i _ -> i < count) live in
        if
          List.equal
            (fun (k, v) (k', v') -> k = k' && Bytes.equal v v')
            expect items
        then Some m
        else None
    | _ -> None
  in
  let done_ = Array.make n false in
  let rec go m left =
    left = 0
    ||
    let min_resp = ref max_int in
    Array.iteri
      (fun i e ->
        if not done_.(i) then min_resp := min !min_resp e.History.resp)
      events;
    List.exists
      (fun i ->
        (not done_.(i))
        && events.(i).History.inv < !min_resp
        && List.exists
             (function
               | None -> false
               | Some m' ->
                   done_.(i) <- true;
                   let ok = go m' (left - 1) in
                   done_.(i) <- false;
                   ok)
             (apply m events.(i)
             :: (if events.(i).History.outcome = History.Pending then
                   [ Some m ]
                 else [])))
      (List.init n Fun.id)
  in
  go [] n

(* A random history of at most 6 ops on 2-3 keys. [mode] 0 draws only
   puts, gets and deletes; 1 draws everything but gets; 2 draws
   everything. Outcomes are random but drawn from plausible values (the
   key's preload and anything written to it, aborted batches included),
   so both verdicts come up often. Sometimes a crash cuts the history
   off: a few ops become pending, responding at one stamp after every
   other, and a full-range scan may follow the cut. *)
let random_history =
  let open QCheck.Gen in
  let* mode = int_bound 2 in
  let* nkeys = int_range 2 3 in
  let keys = List.filteri (fun i _ -> i < nkeys) [ "a"; "b"; "c" ] in
  let* preload = list_repeat nkeys bool in
  let preloaded = List.filteri (fun i _ -> List.nth preload i) keys in
  let init k =
    if List.mem k preloaded then Some (Bytes.of_string ("p" ^ k)) else None
  in
  let* n = int_range 1 6 in
  let* stamps = shuffle_l (List.init (2 * n) Fun.id) in
  let stamps = Array.of_list stamps in
  let key = oneofl keys in
  let fresh = ref 0 in
  let value () =
    incr fresh;
    Bytes.of_string (Printf.sprintf "v%d" !fresh)
  in
  let kinds =
    match mode with
    | 0 -> [ `Put; `Get; `Delete ]
    | 1 -> [ `Put; `Delete; `Scan; `Batch ]
    | _ -> [ `Put; `Get; `Delete; `Scan; `Batch ]
  in
  let* calls =
    list_repeat n
      (oneofl kinds >>= function
       | `Put -> map (fun k -> History.Put (k, value ())) key
       | `Get -> map (fun k -> History.Get k) key
       | `Delete -> map (fun k -> History.Delete k) key
       | `Scan -> map2 (fun k c -> History.Scan (k, c)) key (int_bound 3)
       | `Batch ->
           map
             (fun ks -> History.Batch (List.map (fun k -> (k, value ())) ks))
             (list_size (int_range 1 2) key))
  in
  let candidates k =
    Option.to_list (init k)
    @ List.concat_map
        (function
          | History.Put (k', v) when k' = k -> [ v ]
          | History.Batch ws ->
              List.filter_map
                (fun (k', v) -> if k' = k then Some v else None)
                ws
          | _ -> [])
        calls
  in
  let pick k =
    match candidates k with
    | [] -> return None
    | vs -> map Option.some (oneofl vs)
  in
  let outcome = function
    | History.Put _ -> return History.Ok_unit
    | History.Get k ->
        map2 (fun absent v -> History.Got (if absent then None else v))
          (float_bound_inclusive 1.0 >|= fun f -> f < 0.25)
          (pick k)
    | History.Delete _ -> map (fun e -> History.Existed e) bool
    | History.Batch _ ->
        map (fun f -> History.Committed (f < 0.75)) (float_bound_inclusive 1.0)
    | History.Scan (from, count) ->
        let later = List.filter (fun k -> String.compare k from >= 0) keys in
        map
          (fun items ->
            History.Items
              (List.filteri
                 (fun i _ -> i < count)
                 (List.filter_map Fun.id items)))
          (flatten_l
             (List.map
                (fun k ->
                  bool >>= fun keep ->
                  if keep then map (Option.map (fun v -> (k, v))) (pick k)
                  else return None)
                later))
  in
  let* outcomes = flatten_l (List.map outcome calls) in
  let* crashed = float_bound_inclusive 1.0 >|= fun f -> f < 0.4 in
  let* pending =
    list_repeat n (float_bound_inclusive 1.0 >|= fun f -> crashed && f < 0.3)
  in
  let* after =
    let scan = History.Scan ("a", 3) in
    if crashed then
      map2
        (fun read items -> if read then [ (scan, items) ] else [])
        bool (outcome scan)
    else return []
  in
  let cut = 2 * n in
  let before =
    List.mapi
      (fun i ((call, outcome), pending) ->
        let a = stamps.(2 * i) and b = stamps.((2 * i) + 1) in
        if pending then ev i (i mod 3) call History.Pending (min a b) cut
        else ev i (i mod 3) call outcome (min a b) (max a b))
      (List.combine (List.combine calls outcomes) pending)
  in
  let after =
    List.map
      (fun (call, outcome) -> ev n 0 call outcome (cut + 1) (cut + 2))
      after
  in
  return (init, preloaded, Array.of_list (before @ after))

(* Exact on register-only histories (Wing-Gong is complete per key) and
   on histories without gets (scans and batches are searched atomically
   together), pending ops included; with gets and scans or committed or
   pending batches mixed, gets stay in the per-key search, so the
   checker may only be more permissive. *)
let test_linearize_matches_oracle =
  qcase ~count:3000 "matches a brute-force oracle on tiny histories"
    (QCheck.make
       ~print:(fun (_, preloaded, events) ->
         Format.asprintf "preloaded [%s]@.%a" (String.concat "; " preloaded)
           (Format.pp_print_list History.pp_event)
           (Array.to_list events))
       random_history)
    (fun (init, init_keys, events) ->
      let expected = oracle ~init events in
      let got = Result.is_ok (Linearize.check ~init ~init_keys events) in
      let has f =
        Array.exists (fun e -> f e.History.call e.History.outcome) events
      in
      let gets =
        has (fun c o ->
            match (c, o) with History.Get _, History.Got _ -> true | _ -> false)
      in
      let anchors =
        has (fun c o ->
            match (c, o) with
            | History.Scan _, History.Items _ -> true
            | History.Batch _, (History.Committed true | History.Pending) ->
                true
            | _ -> false)
      in
      if gets && anchors then (not expected) || got else got = expected)

(* ---- whole-run determinism (qcheck) ---- *)

(* Two runs of the same seeded schedule must agree on everything
   observable: final virtual clock, events executed, history length, and
   the store's operation statistics. *)
let store_run ~tie_seed ~seed =
  let engine = Engine.create () in
  Engine.set_tie_break engine (Engine.Seeded tie_seed);
  let store_ref = ref None in
  Engine.spawn engine (fun () ->
      (* 3 threads over 64 keys of 64 B: 256 KiB PWBs, 1024 HSIT slots,
         8 MiB Value Storages. *)
      let cfg =
        {
          Prism_core.Config.default with
          Prism_core.Config.threads = 3;
          hsit_capacity = 1024;
          pwb_size = 256 * 1024;
          vs_size = 8 * 1024 * 1024;
          nvm_size = (3 * 256 * 1024) + (1024 * 16) + (16 * 1024 * 1024);
          seed;
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

(* The fingerprint must see every decision, not just the head of the
   list that [Hashtbl.hash] would look at. *)
let test_fingerprint_whole_list () =
  let zeros = Array.make 1000 0 in
  let one_at i =
    let c = Array.copy zeros in
    c.(i) <- 1;
    c
  in
  let fp = Explore.fingerprint ~events:4000 ~clock:0.25 in
  Alcotest.(check bool) "a change at index 8 counts" true
    (fp zeros <> fp (one_at 8));
  Alcotest.(check bool) "a change at index 500 counts" true
    (fp zeros <> fp (one_at 500));
  Alcotest.(check bool) "index 8 and index 500 differ" true
    (fp (one_at 8) <> fp (one_at 500));
  Alcotest.(check int) "same list, same fingerprint" (fp (one_at 500))
    (fp (one_at 500))

(* A run folds its fingerprint over the engine's decisions in place;
   it must equal the array form over the copy [keep_choices] returns. *)
let test_run_fingerprint_in_place () =
  let r =
    Explore.run_once ~tie:(Engine.Seeded 5L) ~keep_choices:true
      ~pwb_size:(16 * 1024) explore_cfg
      (Explore.workload explore_cfg)
  in
  Alcotest.(check bool) "decisions were taken" true (r.Explore.decisions > 0);
  Alcotest.(check int) "decision count" (Array.length r.Explore.choices)
    r.Explore.decisions;
  Alcotest.(check int) "fingerprint"
    (Explore.fingerprint ~events:r.Explore.executed ~clock:r.Explore.clock
       r.Explore.choices)
    r.Explore.fingerprint

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

(* [Explore.run], [run_dpor] and the crash sweep build one workload per
   walk and hand it to every run, forked workers included. That is only
   sound if a run leaves every key and value it was given byte-identical
   -- a store that kept a put's bytes and wrote into them would change
   the program of every later run. Checked on each store, for a run
   under a seeded schedule and for one cut mid-way and recovered. *)
let test_workload_unchanged_by_runs () =
  List.iter
    (fun (name, cfg) ->
      let w = Explore.workload cfg in
      let before = Marshal.to_string w [] in
      let clean =
        Explore.run_once ~tie:(Engine.Seeded 5L) ~cut:Explore.Clean
          ~pwb_size:(16 * 1024) cfg w
      in
      (match clean.Explore.counts with
      | (boundary, total) :: _ when total > 1 ->
          let cut = Explore.Boundary (boundary, total / 2) in
          let r = Explore.run_once ~cut ~pwb_size:(16 * 1024) cfg w in
          Alcotest.(check bool) (name ^ " run was cut") true
            (r.Explore.crashed <> None)
        | _ -> ());
      Alcotest.(check bool)
        (name ^ " workload byte-identical after its runs")
        true
        (Marshal.to_string w [] = before))
    [
      ("prism", explore_cfg);
      ("kvell", { explore_cfg with Explore.store = `Kvell });
      ( "cluster",
        Explore.topology ~shards:2 { explore_cfg with Explore.store = `Cluster }
      );
    ]

(* The preload a walk shares is built once with its workload: keys
   [0, records) in order, each at version 0 of its payload, and the
   table a run's check reads its initial values from holds exactly
   those. The crash sweep starts every key absent. *)
let test_preload_version_zero () =
  List.iter
    (fun (name, cfg) ->
      let w = Explore.workload cfg in
      let n = cfg.Explore.records in
      Alcotest.(check (list string))
        (name ^ " preload is keys [0, preload)")
        (List.init n Prism_workload.Ycsb.key_of)
        w.Explore.preload;
      Alcotest.(check int) (name ^ " table entries") n
        (Hashtbl.length w.Explore.initial);
      List.iter
        (fun key ->
          Alcotest.(check (option bytes))
            (name ^ " " ^ key ^ " at version 0")
            (Some
               (Prism_workload.Ycsb.value_for ~size:cfg.Explore.value_size
                  ~key ~version:0))
            (Hashtbl.find_opt w.Explore.initial key))
        w.Explore.preload)
    [
      ("default", Explore.default);
      ( "cluster",
        Explore.topology ~shards:2
          { Explore.default with Explore.store = `Cluster } );
    ];
  let sweep = Crash_sweep.workload Crash_sweep.default in
  Alcotest.(check int) "sweep preloads nothing" 0
    (List.length sweep.Explore.preload);
  Alcotest.(check int) "sweep table is empty" 0
    (Hashtbl.length sweep.Explore.initial)

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
    Explore.run_dpor ~max_classes:dpor_budget svc_budget_cfg
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
      (* ... and so is the trimmed list the CLI prints as its hint *)
      let trimmed = Explore.strip_fifo_tail f.Explore.choices in
      Alcotest.(check bool) "trimmed hint drops the FIFO tail" true
        (Array.length trimmed < Array.length f.Explore.choices);
      Alcotest.(check (option string)) "trimmed hint replays the violation"
        (Some f.Explore.violation)
        (Explore.replay_choices svc_budget_cfg ~choices:trimmed);
      (* virtual-time endpoints surface in the report *)
      Alcotest.(check bool) "violation reports its virtual-time window" true
        (String.length f.Explore.violation >= 7
        && String.sub f.Explore.violation 0 7 = "window ")

(* Same budget argument for the crash-consistency fault: skip-HSIT-flush
   only manifests across a crash, so the DPOR walk drives the sweep's
   crash-at-boundary run via [Explore.run_once ~tie:(Guided _) ~cut]. PR 1's
   sweep scanned every [crash_every]-th persist boundary; pinning one
   boundary and exploring schedule classes finds the lost write within
   the same 2-class budget. *)
let hsit_sweep_cfg =
  {
    Crash_sweep.default with
    Explore.threads = 2;
    keys_per_thread = 12;
    ops_per_thread = 30;
    crash_every = 40;
    seed = 9L;
    fault = Explore.Skip_hsit_flush;
  }

let test_dpor_hsit_budget () =
  let dpor_budget = 2 in
  Alcotest.(check bool) "dpor budget is under the blind budget" true
    (dpor_budget < blind_budget);
  let run ~choose =
    let r =
      Explore.run_once ~tie:(Engine.Guided choose)
        ~cut:(Explore.Boundary ("nvm-persist", 11))
        ~pwb_size:(8 * 1024) hsit_sweep_cfg
        (Crash_sweep.workload hsit_sweep_cfg)
    in
    if r.Explore.crashed <> None && r.Explore.violation <> None then 1 else 0
  in
  let rep =
    Dpor.explore ~max_classes:dpor_budget ~dependent:History.conflicting run
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

(* Each injected scan anomaly must be caught on each of [stores] within
   that store's class budget, with a replayable decision list and a
   virtual-time window in the report, and by the snapshot search: the
   per-item scan conditions cannot see it. *)
let test_scan_fault name fault stores () =
  List.iter
    (fun (store, budget) ->
      let cfg = { (scan_fault_cfg fault) with Explore.store } in
      let name =
        Printf.sprintf "%s on %s" name
          (if store = `Prism then "prism" else "kvell")
      in
      let rep = Explore.run_dpor ~max_classes:budget cfg in
      match rep.Explore.dpor_failures with
      | [] ->
          Alcotest.failf "strict checker missed %s within %d classes" name
            budget
      | f :: _ ->
          (match Explore.replay_choices cfg ~choices:f.Explore.choices with
          | Some _ -> ()
          | None -> Alcotest.failf "%s failure does not replay" name);
          let report = f.Explore.violation in
          Alcotest.(check bool) "violation reports its virtual-time window"
            true
            (String.starts_with ~prefix:"window [" report);
          (* The reason follows the "window [lo, hi] " prefix. *)
          let reason =
            let at = String.index report ']' + 2 in
            String.sub report at (String.length report - at)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s is found by the snapshot search" name)
            true (snapshot_reason reason))
    stores

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
            (if store = `Prism then "prism" else "kvell")
            f.Explore.violation)
    [ `Prism; `Kvell ]

(* The FIFO schedule of the default shape fails on exactly these seeds
   (ROADMAP's FIFO-verdict item). A fix that changes the set updates it
   here with its evidence; a checker refactor must leave it alone. *)
let test_dpor_fifo_verdicts () =
  let failing =
    List.filter
      (fun seed ->
        let cfg = { Explore.default with Explore.seed = Int64.of_int seed } in
        (Explore.run_dpor ~max_classes:1 cfg).Explore.dpor_failures <> [])
      (List.init 200 (fun i -> i + 1))
  in
  Alcotest.(check (list int)) "failing seeds" [ 10; 66; 72; 108; 150 ] failing

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

(* Tie sets wider than a machine word. 70 lockstep threads, paired from
   both ends so that threads [i] and [69 - i] write key [i]: every
   instant is a 70-member tie set, wider than any bit mask over tie-set
   indices, and the reduced walk's first conflicting pair sits at
   indices 0 and 69. The digest pins both walks' class sequences, so a
   compact encoding of the walk's per-decision state must reproduce
   them exactly. *)
let test_dpor_wide_ties () =
  let progs =
    List.init 70 (fun tid ->
        let k = min tid (69 - tid) in
        [ (k, true); (k, true) ])
  in
  let run ~choose = micro_run progs ~tie:(Engine.Guided choose) in
  let digest full =
    let rep =
      Dpor.explore ~full ~max_classes:16 ~dependent:History.conflicting run
    in
    let b = Buffer.create 4096 in
    Printf.bprintf b "%d/%d/%d/%b;" rep.Dpor.explored rep.Dpor.runs
      rep.Dpor.pruned rep.Dpor.complete;
    List.iter
      (fun (c : _ Dpor.class_result) ->
        Printf.bprintf b "%d:%d:" c.Dpor.run c.Dpor.depth;
        Array.iter (fun x -> Printf.bprintf b "%d," x) c.Dpor.choices;
        Buffer.add_char b ';')
      rep.Dpor.classes;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  Alcotest.(check string) "reduced walk digest" "f5c8bc98c9b232631c1ad534a614c5a5" (digest false);
  Alcotest.(check string) "full walk digest" "ec894043cbbda24f7005dd7eff8c51de" (digest true)

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
    Explore.run_tie shrink_cfg
      ~tie:(Engine.Seeded failure.Explore.stats.Explore.tie_seed)
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
    Explore.threads = 2;
    keys_per_thread = 12;
    ops_per_thread = 30;
    crash_every = 40;
    seed = 9L;
  }

let test_sweep_prism () =
  let report = Crash_sweep.run sweep_cfg in
  Alcotest.(check string) "report digest" "f8ece99a761154208402b3b7f2c64416" (sweep_digest report);
  Alcotest.(check bool) "injected some crashes" true
    (report.Crash_sweep.crash_points > 0);
  match report.Crash_sweep.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "prism recovery violation at %s boundary %d: %s"
        v.Crash_sweep.boundary v.Crash_sweep.crash_point v.Crash_sweep.detail

let test_sweep_kvell () =
  let report =
    Crash_sweep.run { sweep_cfg with Explore.store = `Kvell }
  in
  Alcotest.(check string) "report digest" "b0d33ddc3c59096116d2ac64921d5824" (sweep_digest report);
  Alcotest.(check bool) "injected some crashes" true
    (report.Crash_sweep.crash_points > 0);
  Alcotest.(check bool) "kvell recoveries consistent" true
    (report.Crash_sweep.violations = [])

let test_sweep_catches_lost_writes () =
  let report =
    Crash_sweep.run
      { sweep_cfg with Explore.fault = Explore.Skip_hsit_flush;
        crash_every = 10 }
  in
  Alcotest.(check string) "report digest" "1393b2aa9b696231e8ad72f4e593e994" (sweep_digest report);
  match report.Crash_sweep.violations with
  | [] -> Alcotest.fail "disabled HSIT flush lost no acknowledged write"
  | v :: _ ->
      (* The report is the violating history: a virtual-time window and
         the ops in it, each value named by its version stamp. *)
      let d = v.Crash_sweep.detail in
      let has_window =
        String.length d >= 8 && String.sub d 0 8 = "window ["
      in
      let names_version =
        List.exists
          (fun w ->
            String.length w >= 2
            && w.[0] = 'v'
            && String.for_all (fun c -> c >= '0' && c <= '9')
                 (String.sub w 1 (String.length w - 1)))
          (String.split_on_char ' ' d)
      in
      Alcotest.(check bool) "report has a window span" true has_window;
      Alcotest.(check bool) "report names a value by its version stamp" true
        names_version

let lsm_sweep_cfg =
  { sweep_cfg with Explore.store = `Lsm; crash_every = 7 }

let test_sweep_lsm () =
  let report = Crash_sweep.run lsm_sweep_cfg in
  Alcotest.(check string) "report digest" "5880ea1235599f3f40a22bc16a2a2dfd" (sweep_digest report);
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
      { lsm_sweep_cfg with Explore.fault = Explore.No_lsm_wal; crash_every = 1 }
  in
  Alcotest.(check string) "report digest" "4e34445c09efd12972f47812e55a8735" (sweep_digest report);
  Alcotest.(check bool) "WAL-less LSM loses acknowledged writes" true
    (report.Crash_sweep.violations <> []);
  Alcotest.(check bool) "losses are at the publish boundary" true
    (List.for_all
       (fun v -> v.Crash_sweep.boundary = "sstable-publish")
       report.Crash_sweep.violations)

(* [--txn-every] without [--shards] asks for a one-shard cluster, and
   every mode must get it: the sweep crashes at the 2PC log boundaries
   of the batches, instead of running plain Prism and dropping them. *)
let test_sweep_txn_without_shards () =
  let cfg =
    Explore.topology ~txn_every:4 { sweep_cfg with Explore.store = `Prism }
  in
  Alcotest.(check bool) "a one-shard cluster" true
    (cfg.Explore.store = `Cluster && cfg.Explore.shards = 1);
  let report = Crash_sweep.run cfg in
  Alcotest.(check bool) "coord-log-persist boundaries swept" true
    (List.assoc_opt "coord-log-persist" report.Crash_sweep.boundaries
     |> Option.fold ~none:false ~some:(fun n -> n > 0));
  Alcotest.(check bool) "recoveries consistent" true
    (report.Crash_sweep.violations = [])

(* A fault a mode cannot inject must not pass as a clean check: KVell has
   no HSIT or SVC, the SVC fault is invisible across a crash, plain Prism
   has no 2PC log and only the LSM has a WAL to drop. *)
let test_sweep_rejects_faults () =
  let sweep cfg = ignore (Crash_sweep.run cfg : Crash_sweep.report)
  and dpor cfg =
    ignore (Explore.run_dpor ~max_classes:1 cfg : Explore.dpor_report)
  and seeded cfg = ignore (Explore.run ~schedules:1 cfg : Explore.report) in
  List.iter
    (fun (mode, store, fault) ->
      match mode { sweep_cfg with Explore.store; fault } with
      | () -> Alcotest.fail "a fault that cannot be injected was accepted"
      | exception Invalid_argument _ -> ())
    [
      (sweep, `Kvell, Explore.Skip_hsit_flush);
      (sweep, `Prism, Explore.Skip_svc_invalidate);
      (dpor, `Kvell, Explore.Skip_svc_invalidate);
      (seeded, `Prism, Explore.Skip_2pc_log_flush);
      (sweep, `Prism, Explore.No_lsm_wal);
    ]

(* A two-thread sweep over twelve keys each, 120 ops per thread, seed 9:
   with [crash_every] past the boundary count it is the clean run, so
   the digest pins the workload, its boundary counts and the recovery
   report. *)
let test_sweep_two_threads () =
  let report =
    Crash_sweep.run
      {
        Crash_sweep.default with
        Explore.threads = 2;
        keys_per_thread = 12;
        ops_per_thread = 120;
        crash_every = 100_000;
        seed = 9L;
      }
  in
  Alcotest.(check string) "report digest" "825a17daf68e52f768fe240401dc95fb" (sweep_digest report);
  Alcotest.(check bool) "no violations" true
    (report.Crash_sweep.violations = [])

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
  (* At 3 jobs a batch of 6 can end in the middle of a node. *)
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "dpor report+progress identical at jobs=%d" jobs)
        true
        (trace jobs = serial))
    [ 2; 3; 4 ]

let test_fleet_sweep_deterministic () =
  let cfg = { sweep_cfg with Explore.crash_every = 13 } in
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
     dependent tie set, so each committed run creates frontier nodes
     just below its target, and the shallowest bucket often holds fewer
     pairs than a batch. Class set, run numbering and commit sequence
     must stay byte-identical to the serial walk on a budget large
     enough for several batches. *)
  let progs = List.init 3 (fun _ -> [ (0, true); (0, true); (0, true) ]) in
  let run ~choose = micro_run progs ~tie:(Engine.Guided choose) in
  let walk jobs =
    let commits = ref [] in
    let report =
      Dpor.explore ~jobs
        ~on_commit:(fun ~run:r result -> commits := (r, result) :: !commits)
        ~max_classes:20 ~dependent:History.conflicting run
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
          case "pending ops after a cut" test_linearize_pending;
          case "memos start small" test_linearize_memo_major_words;
          case "memo keys tell wide op indices apart"
            test_linearize_memo_wide_ops;
          test_linearize_matches_oracle;
        ] );
      ( "history-labels",
        [
          case "tid widening kills aliasing" test_label_tid_widening;
          case "scan/write range conflicts" test_label_scan_conflicts;
          case "record is exception-safe" test_record_exception_safe;
          case "reports name values by version" test_pp_values;
        ] );
      ( "scan-strict",
        [
          case "deleted-key ghost rejected" test_scan_ghost;
          case "torn snapshot rejected" test_scan_torn;
          case "missing in-range key rejected" test_scan_missing;
          case "omitted preloaded key rejected" test_scan_missing_preloaded;
          case "legitimate scans accepted" test_scan_strict_accepts;
          test_scan_atomic_store_accepted;
        ] );
      ("determinism", [ test_determinism_qcheck ]);
      ( "explore",
        [
          case "clean store linearizable" test_explore_clean;
          case "fingerprint sees every decision" test_fingerprint_whole_list;
          case "run fingerprint folds in place" test_run_fingerprint_in_place;
          case "stale-cache fault caught" test_explore_catches_stale_cache;
          case "kvell" test_explore_kvell;
          case "runs leave the shared workload unchanged"
            test_workload_unchanged_by_runs;
          case "preload is version 0 of keys [0, preload)"
            test_preload_version_zero;
        ] );
      ( "dpor",
        [
          test_dpor_micro_exact;
          case "svc fault within budget" test_dpor_svc_budget;
          case "hsit fault within budget" test_dpor_hsit_budget;
          case "frontier spreads a truncated budget" test_dpor_frontier_spread;
          case "tie sets wider than a word" test_dpor_wide_ties;
          case "default walk matches its golden digest" test_dpor_golden_default;
          case "FIFO verdicts of seeds 1-200" test_dpor_fifo_verdicts;
        ] );
      ( "scan-faults",
        [
          (* On KVell the first stale repeat scan the check can refute
             comes in class 6 (the seventh) of the walk. *)
          case "stale snapshot caught by the snapshot search"
            (test_scan_fault "scan-stale" Explore.Scan_stale_snapshot
               [ (`Prism, scan_budget); (`Kvell, 7) ]);
          case "skipped PWB caught by the snapshot search"
            (test_scan_fault "scan-skip-pwb" Explore.Scan_skip_pwb
               [ (`Prism, scan_budget) ]);
          case "dropped key caught by the snapshot search"
            (test_scan_fault "scan-drop" Explore.Scan_drop_key
               [ (`Prism, scan_budget); (`Kvell, scan_budget) ]);
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
          case "faults it cannot inject are rejected" test_sweep_rejects_faults;
          case "txn-every without shards sweeps a cluster"
            test_sweep_txn_without_shards;
          case "two threads, seed 9, pinned" test_sweep_two_threads;
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
