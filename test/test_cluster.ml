(* Tests for the cluster subsystem: the simulated network medium, 2PC
   abort paths (no partial writes may ever become visible), cluster
   schedules under the strict-serializability checker, and the
   coordinator-log crash sweep. *)

open Prism_sim
open Prism_cluster
open Helpers

(* ---- network medium ---- *)

let test_net_latency_bandwidth () =
  in_sim (fun e ->
      let link = { Net.latency = 1e-3; bandwidth = 1000.0; loss = 0.0 } in
      let net = Net.create e ~nodes:2 ~link ~seed:1L () in
      Net.register_stats net (Engine.stats e) ~prefix:"net";
      let t0 = Engine.now e in
      let at = ref nan in
      Net.send net ~src:0 ~dst:1 ~size:500 (fun () ->
          at := Engine.now e -. t0);
      Engine.delay 1.0;
      (* 500 B over 1000 B/s = 0.5 s transmission + 1 ms latency. *)
      check_approx "delivery time" !at 0.501;
      Alcotest.(check int) "delivered" 1
        (Stats.get_int (Engine.stats e) "net.delivered");
      Alcotest.(check int) "bytes" 500 (Net.bytes net))

let test_net_fifo_per_link () =
  (* A burst of same-instant sends on one link must arrive in send
     order: the serial pipe plus the strictly monotone delivery clock
     forbid reordering even when transmission times tie at 0. *)
  in_sim (fun e ->
      let link = { Net.latency = 1e-6; bandwidth = 0.0; loss = 0.0 } in
      let net = Net.create e ~nodes:2 ~link ~seed:1L () in
      let got = ref [] in
      for i = 0 to 19 do
        Net.send net ~src:0 ~dst:1 ~size:0 (fun () -> got := i :: !got)
      done;
      Engine.delay 1.0;
      Alcotest.(check (list int)) "delivery order = send order"
        (List.init 20 Fun.id) (List.rev !got))

(* One run of a fixed message schedule: [n] messages of varying sizes
   on every directed link of a 3-node mesh, with lossy links. Returns
   the full delivery trace (message id, virtual delivery time) plus the
   counters — the complete observable behaviour of the medium. *)
let net_trace ~seed ~loss ~sizes =
  in_sim (fun e ->
      let link = { Net.latency = 2e-6; bandwidth = 1e6; loss } in
      let net = Net.create e ~nodes:3 ~link ~seed () in
      Net.register_stats net (Engine.stats e) ~prefix:"net";
      let trace = ref [] in
      List.iteri
        (fun i size ->
          let src = i mod 3 in
          let dst = (i + 1 + (i mod 2)) mod 3 in
          Net.send net ~src ~dst ~size (fun () ->
              trace := (i, src, dst, Engine.now e) :: !trace))
        sizes;
      Engine.delay 1.0;
      ( List.rev !trace,
        Net.msgs net,
        Net.bytes net,
        Net.dropped net,
        Stats.get_int (Engine.stats e) "net.delivered" ))

let test_net_deterministic_qcheck =
  qcase ~count:60 "medium is deterministic and order-preserving per link"
    QCheck.(
      triple (int_bound 1000) (int_bound 100)
        (list_of_size Gen.(int_range 1 40) (int_bound 4096)))
    (fun (seed_base, loss_pct, sizes) ->
      let seed = Int64.of_int (seed_base + 1) in
      let loss = float_of_int loss_pct /. 200.0 (* 0 .. 0.5 *) in
      let ((trace, msgs, bytes, dropped, delivered) as run1) =
        net_trace ~seed ~loss ~sizes
      in
      let run2 = net_trace ~seed ~loss ~sizes in
      (* Same seed, same schedule: byte-identical behaviour, including
         which messages the loss stream drops. *)
      run1 = run2
      && msgs = List.length sizes
      && bytes = List.fold_left ( + ) 0 sizes
      && dropped + delivered = msgs
      && List.length trace = delivered
      (* Order preservation is a per-link guarantee: each link is a
         serial pipe with a strictly monotone delivery clock, so on any
         one link ids arrive in send order at increasing times. Messages
         on different links may overtake each other freely. *)
      && List.for_all
           (fun (src, dst) ->
             let on_link =
               List.filter (fun (_, s, d, _) -> s = src && d = dst) trace
             in
             fst
               (List.fold_left
                  (fun (ok, (last_i, last_t)) (i, _, _, t) ->
                    (ok && i > last_i && t > last_t, (i, t)))
                  (true, (-1, neg_infinity))
                  on_link))
           [ (0, 1); (0, 2); (1, 0); (1, 2); (2, 0); (2, 1) ])

let test_net_loss_drops () =
  in_sim (fun e ->
      let link = { Net.latency = 1e-6; bandwidth = 0.0; loss = 1.0 } in
      let net = Net.create e ~nodes:2 ~link ~seed:1L () in
      let fired = ref false in
      for _ = 1 to 5 do
        Net.send net ~src:0 ~dst:1 ~size:8 (fun () -> fired := true)
      done;
      Engine.delay 1.0;
      Alcotest.(check bool) "nothing delivered" false !fired;
      Alcotest.(check int) "all dropped" 5 (Net.dropped net))

(* ---- 2PC abort paths ---- *)

let mk_cluster ?(shards = 2) ?(tweak = Fun.id) e =
  let s =
    {
      Prism_harness.Setup.default_scenario with
      records = 256;
      value_size = 64;
      threads = 2;
      num_ssds = 1;
      ops = 0;
      seed = 7L;
    }
  in
  Cluster.of_scenario e (tweak { Cluster.default with Cluster.shards }) s

(* First probe key owned by [shard]. *)
let key_on c shard =
  let rec go i =
    if i > 10_000 then Alcotest.failf "no key hashes to shard %d" shard
    else
      let k = Prism_workload.Ycsb.key_of i in
      if Cluster.shard_of_key c k = shard then k else go (i + 1)
  in
  go 0

let get_str c ~tid k = Option.map Bytes.to_string (Cluster.get c ~tid k)

(* A batch spanning both shards when one participant votes NO must
   abort with no write visible anywhere — not through gets, not through
   scans, not in the participant that voted YES and held locks. *)
let test_batch_vote_no_no_partial_writes () =
  in_sim (fun e ->
      let c, _kv =
        mk_cluster e ~tweak:(fun cc ->
            { cc with Cluster.vote_no_shard = Some 0 })
      in
      let k0 = key_on c 0 and k1 = key_on c 1 in
      Cluster.put c ~tid:0 k1 (Bytes.of_string "old");
      (match
         Cluster.batch c ~tid:0
           [ (k0, Bytes.of_string "n0"); (k1, Bytes.of_string "n1") ]
       with
      | Cluster.Committed -> Alcotest.fail "vote-NO participant committed"
      | Cluster.Aborted -> ());
      Alcotest.(check (option string)) "voter's key untouched" None
        (get_str c ~tid:0 k0);
      Alcotest.(check (option string)) "prepared shard rolled back"
        (Some "old") (get_str c ~tid:0 k1);
      (* Direct store reads: nothing leaked below the router either. *)
      Alcotest.(check bool) "shard 0 store clean" true
        (Prism_core.Store.get (Cluster.store c 0) ~tid:0 k0 = None);
      let in_scan =
        Cluster.scan c ~tid:0 "" 1000
        |> List.exists (fun (k, v) -> k = k0 || (k = k1 && Bytes.to_string v <> "old"))
      in
      Alcotest.(check bool) "scan sees no partial write" false in_scan;
      let commits, aborts, _ = Cluster.txn_stats c in
      Alcotest.(check int) "no commits" 0 commits;
      Alcotest.(check int) "one abort" 1 aborts;
      (* The YES participant's locks were released on abort: a batch
         confined to shard 1 commits afterwards. *)
      (match Cluster.batch c ~tid:0 [ (k1, Bytes.of_string "after") ] with
      | Cluster.Committed -> ()
      | Cluster.Aborted -> Alcotest.fail "post-abort batch found stale locks");
      Alcotest.(check (option string)) "post-abort batch applied"
        (Some "after") (get_str c ~tid:0 k1))

(* A participant that never answers PREPARE forces the coordinator down
   the vote-timeout path: presumed abort, locks on the responsive shard
   released, no durable record, nothing visible. *)
let test_batch_timeout_no_partial_writes () =
  in_sim (fun e ->
      let c, _kv =
        mk_cluster e ~tweak:(fun cc ->
            { cc with Cluster.mute_shard = Some 0; txn_timeout = 1e-4 })
      in
      let k0 = key_on c 0 and k1 = key_on c 1 in
      (match
         Cluster.batch c ~tid:0
           [ (k0, Bytes.of_string "x0"); (k1, Bytes.of_string "x1") ]
       with
      | Cluster.Committed -> Alcotest.fail "mute participant committed"
      | Cluster.Aborted -> ());
      Alcotest.(check (option string)) "mute shard key absent" None
        (get_str c ~tid:0 k0);
      Alcotest.(check (option string)) "prepared shard key absent" None
        (get_str c ~tid:0 k1);
      Alcotest.(check bool) "scan empty" true (Cluster.scan c ~tid:0 "" 10 = []);
      let commits, aborts, _ = Cluster.txn_stats c in
      Alcotest.(check int) "no commits" 0 commits;
      Alcotest.(check bool) "timeout aborted" true (aborts >= 1);
      (* Shard 1 prepared and must have been released by the abort. *)
      Cluster.put c ~tid:0 k1 (Bytes.of_string "later");
      Alcotest.(check (option string)) "shard 1 usable after timeout"
        (Some "later") (get_str c ~tid:0 k1))

let test_batch_commit_and_single_ops () =
  in_sim (fun e ->
      let c, kv = mk_cluster e in
      let k0 = key_on c 0 and k1 = key_on c 1 in
      (match
         Cluster.batch c ~tid:0
           [ (k0, Bytes.of_string "a"); (k1, Bytes.of_string "b") ]
       with
      | Cluster.Committed -> ()
      | Cluster.Aborted -> Alcotest.fail "clean batch aborted");
      Alcotest.(check (option string)) "k0" (Some "a") (get_str c ~tid:0 k0);
      Alcotest.(check (option string)) "k1" (Some "b") (get_str c ~tid:0 k1);
      (* The Kv front end routes through the same cluster. *)
      Alcotest.(check bool) "kv get agrees" true
        (Option.map Bytes.to_string (kv.Prism_harness.Kv.get ~tid:1 k0)
        = Some "a");
      Alcotest.(check bool) "delete reports existence" true
        (Cluster.delete c ~tid:0 k0);
      Alcotest.(check bool) "second delete reports absence" false
        (Cluster.delete c ~tid:0 k0);
      let commits, aborts, prepares = Cluster.txn_stats c in
      Alcotest.(check int) "one commit" 1 commits;
      Alcotest.(check int) "no aborts" 0 aborts;
      Alcotest.(check int) "two prepares" 2 prepares)

(* A batch naming a key twice applies the later write, on a batch that
   spans both shards. *)
let test_batch_repeated_key () =
  in_sim (fun e ->
      let c, _kv = mk_cluster e in
      let k0 = key_on c 0 and k1 = key_on c 1 in
      (match
         Cluster.batch c ~tid:0
           [
             (k0, Bytes.of_string "first");
             (k1, Bytes.of_string "x");
             (k0, Bytes.of_string "second");
           ]
       with
      | Cluster.Committed -> ()
      | Cluster.Aborted -> Alcotest.fail "clean batch aborted");
      Alcotest.(check (option string)) "later write wins" (Some "second")
        (get_str c ~tid:0 k0);
      Alcotest.(check (option string)) "other shard" (Some "x")
        (get_str c ~tid:0 k1);
      let _, _, prepares = Cluster.txn_stats c in
      Alcotest.(check int) "one prepare per shard" 2 prepares)

(* ---- the cluster's event schedule, pinned ----

   A 2-shard cluster whose every fourth put becomes a 3-key 2PC batch,
   driven by 4 threads of 50 mixed ops each over 16 keys, so batches
   meet held locks. The trace is everything the schedule determines:
   the engine's event count, a digest of its tie-break decisions, each
   op's completion time, the network counters and the transaction
   outcomes. A rework of the routing, RPC or 2PC
   paths that keeps virtual time must leave it unchanged under FIFO and
   under a seeded tie-break. *)
let cluster_schedule_trace tie =
  let e = Engine.create () in
  Engine.set_tie_break e tie;
  let records = 16 in
  let c, kv =
    Cluster.of_scenario e
      { Cluster.default with Cluster.shards = 2 }
      {
        Prism_harness.Setup.default_scenario with
        records;
        value_size = 64;
        threads = 4;
        num_ssds = 1;
        ops = 0;
        seed = 7L;
      }
  in
  let kv = Cluster.with_batches c kv ~every:4 ~records ~seed:7L in
  let times = Buffer.create 4096 in
  for tid = 0 to 3 do
    Engine.spawn e (fun () ->
        let rng = Rng.create (Int64.of_int (100 + tid)) in
        for i = 0 to 49 do
          let key = Prism_workload.Ycsb.key_of (Rng.int rng records) in
          (match Rng.int rng 10 with
          | 0 -> ignore (kv.Prism_harness.Kv.delete ~tid key : bool)
          | 1 -> ignore (kv.Prism_harness.Kv.scan ~tid key 4 : _ list)
          | 2 | 3 | 4 | 5 -> ignore (kv.Prism_harness.Kv.get ~tid key : _ option)
          | _ -> kv.Prism_harness.Kv.put ~tid key (value ~size:64 ((tid * 50) + i)));
          Printf.bprintf times "%d.%d@%h " tid i (Engine.now e)
        done)
  done;
  ignore (Engine.run e);
  let reg = Engine.stats e in
  let commits, aborts, _ = Cluster.txn_stats c in
  let choices = Engine.recorded_choices e in
  Printf.sprintf
    "events=%d choices=%d/%s times=%s msgs=%d bytes=%d delivered=%d \
     commits=%d aborts=%d"
    (Engine.events_executed e) (Array.length choices)
    (Digest.to_hex
       (Digest.string
          (String.concat "," (Array.to_list (Array.map string_of_int choices)))))
    (Digest.to_hex (Digest.string (Buffer.contents times)))
    (Stats.get_int reg "net.msgs") (Stats.get_int reg "net.bytes")
    (Stats.get_int reg "net.delivered") commits aborts

let test_cluster_schedule_pinned () =
  Alcotest.(check string) "fifo"
    "events=4489 choices=0/d41d8cd98f00b204e9800998ecf8427e \
     times=80fa834dc73bb18ba65824b6323165c8 msgs=499 bytes=38880 \
     delivered=499 commits=18 aborts=1"
    (cluster_schedule_trace Engine.Fifo);
  Alcotest.(check string) "seeded"
    "events=4477 choices=1654/c5a37d3c2ce7f52f378bde9c205c403c \
     times=5043dea4be4cde8f04a34a188b14d3f5 msgs=496 bytes=38776 \
     delivered=496 commits=18 aborts=1"
    (cluster_schedule_trace (Engine.Seeded 7L))

(* ---- strict serializability of cluster schedules ---- *)

let cluster_explore_cfg =
  {
    Prism_check.Explore.default with
    Prism_check.Explore.store = `Cluster;
    threads = 2;
    records = 48;
    ops_per_thread = 10;
    shards = 2;
    txn_every = 3;
    seed = 21L;
  }

let test_explore_cluster_clean () =
  let open Prism_check in
  let report = Explore.run ~schedules:3 cluster_explore_cfg in
  Alcotest.(check int) "ran all schedules" 3
    (List.length report.Explore.schedules);
  match report.Explore.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "cluster schedule not strictly serializable: %s"
        f.Explore.violation

let test_dpor_cluster_clean () =
  let open Prism_check in
  let report = Explore.run_dpor ~max_classes:4 cluster_explore_cfg in
  Alcotest.(check bool) "explored some classes" true
    (report.Explore.classes > 0);
  Alcotest.(check bool) "all classes strictly serializable" true
    (report.Explore.dpor_failures = [])

(* ---- coordinator-log crash sweep ---- *)

let cluster_sweep_cfg =
  {
    Prism_check.Crash_sweep.default with
    Prism_check.Explore.store = `Cluster;
    threads = 2;
    keys_per_thread = 6;
    ops_per_thread = 10;
    crash_every = 5;
    seed = 9L;
  }

let test_sweep_cluster () =
  let open Prism_check in
  let report = Crash_sweep.run cluster_sweep_cfg in
  Alcotest.(check string) "report digest" "f329bb23eb58225ec98df5ad30b225ca" (sweep_digest report);
  Alcotest.(check bool) "swept some 2PC boundaries" true
    (report.Crash_sweep.crash_points > 0);
  match report.Crash_sweep.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "cluster recovery violation at %s boundary %d: %s"
        v.Crash_sweep.boundary v.Crash_sweep.crash_point v.Crash_sweep.detail

let test_sweep_cluster_catches_skipped_commit_flush () =
  let open Prism_check in
  let report =
    Crash_sweep.run
      { cluster_sweep_cfg with Explore.fault = Explore.Skip_2pc_log_flush }
  in
  Alcotest.(check string) "report digest" "5da8770906a7299f2932eb10e484f339" (sweep_digest report);
  Alcotest.(check bool)
    "unpersisted commit records lose acknowledged transactions" true
    (report.Crash_sweep.violations <> [])

let test_fleet_cluster_sweep_deterministic () =
  let open Prism_check in
  let serial = Crash_sweep.run ~jobs:1 cluster_sweep_cfg in
  Alcotest.(check bool) "cluster sweep identical at jobs=2" true
    (Crash_sweep.run ~jobs:2 cluster_sweep_cfg = serial)

let () =
  Alcotest.run "cluster"
    [
      ( "net",
        [
          case "latency+bandwidth model" test_net_latency_bandwidth;
          case "per-link fifo" test_net_fifo_per_link;
          case "loss drops" test_net_loss_drops;
          test_net_deterministic_qcheck;
        ] );
      ( "2pc",
        [
          case "commit applies everywhere" test_batch_commit_and_single_ops;
          case "vote-NO leaves no partial writes"
            test_batch_vote_no_no_partial_writes;
          case "vote timeout leaves no partial writes"
            test_batch_timeout_no_partial_writes;
          case "repeated key: later write wins" test_batch_repeated_key;
          case "schedule pinned" test_cluster_schedule_pinned;
        ] );
      ( "strict-serializability",
        [
          case "explored schedules clean" test_explore_cluster_clean;
          case "dpor classes clean" test_dpor_cluster_clean;
        ] );
      ( "crash-sweep",
        [
          case "recovers every 2PC boundary" test_sweep_cluster;
          case "skipped commit flush caught"
            test_sweep_cluster_catches_skipped_commit_flush;
          case "sweep identical across jobs"
            test_fleet_cluster_sweep_deterministic;
        ] );
    ]
