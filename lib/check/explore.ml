open Prism_sim
open Prism_harness

type fault =
  | No_fault
  | Skip_svc_invalidate
  | Skip_hsit_flush
  | Scan_stale_snapshot
  | Scan_skip_pwb
  | Scan_drop_key
  | Skip_2pc_log_flush
  | No_lsm_wal

type config = {
  store : [ `Prism | `Kvell | `Lsm | `Cluster ];
  threads : int;
  records : int;
  keys_per_thread : int;
  value_size : int;
  ops_per_thread : int;
  theta : float;
  delete_every : int;
  scan_every : int;
  fault : fault;
  shards : int;
  txn_every : int;
  crash_every : int;
  seed : int64;
}

let default =
  {
    store = `Prism;
    threads = 4;
    records = 128;
    keys_per_thread = 24;
    value_size = 64;
    ops_per_thread = 48;
    theta = 0.6;
    delete_every = 8;
    scan_every = 16;
    fault = No_fault;
    shards = 2;
    txn_every = 4;
    crash_every = 5;
    seed = 1L;
  }

(* Only the cluster has a 2PC front, so only it gets write batches. *)
let txn_every cfg = if cfg.store = `Cluster then cfg.txn_every else 0

let topology ?shards ?txn_every cfg =
  let shards =
    match shards with
    | Some n when n > 0 -> n
    | _ -> if cfg.store = `Cluster then default.shards else 1
  in
  let cluster = cfg.store = `Cluster || (cfg.store = `Prism && shards > 1) in
  let txn_every =
    match txn_every with
    | Some k when k >= 0 -> k
    | _ -> if cluster then default.txn_every else 0
  in
  let store =
    if cluster || (cfg.store = `Prism && txn_every > 0) then `Cluster
    else cfg.store
  in
  { cfg with store; shards; txn_every }

(* Where each fault lives: the SVC, HSIT and PWB-scan mutants in a Prism
   store's [Config] (so in every cluster shard too), the commit-record
   flush in the cluster, the WAL switch in the LSM, and the two scan
   mutants that only rewrite a result at the [Kv] boundary, over any
   store ([instance]). *)
let check_fault cfg =
  let prism = cfg.store = `Prism || cfg.store = `Cluster in
  let ok =
    match cfg.fault with
    | No_fault | Scan_stale_snapshot | Scan_drop_key -> true
    | Skip_svc_invalidate | Skip_hsit_flush | Scan_skip_pwb -> prism
    | Skip_2pc_log_flush -> cfg.store = `Cluster
    | No_lsm_wal -> cfg.store = `Lsm
  in
  if not ok then invalid_arg "Explore: the store cannot inject this fault"

(* ---- the workload ---- *)

type op =
  | Put of string * bytes
  | Get of string
  | Delete of string
  | Scan of string * int
  | Batch of (string * bytes) list

type workload = {
  keys : int;
  preload : string list;
  initial : (string, bytes) Hashtbl.t;
  ops : op array array;
}

(* The YCSB-A slice: a 50/50 read/update stream from the shared generator,
   with a sprinkle of deletes and short scans so all four operations get
   history coverage. Generated once per walk, preload included, and
   shared by every run of it, including runs on forked workers — every
   schedule replays the same per-thread op lists, so only the
   interleaving differs. Sharing is safe because a run never writes to
   the keys or values it is given. *)
let workload cfg =
  let rng = Rng.create cfg.seed in
  let gen =
    Prism_workload.Ycsb.create Prism_workload.Ycsb.ycsb_a ~records:cfg.records
      ~theta:cfg.theta ~value_size:cfg.value_size rng
  in
  let spice = Rng.create (Int64.lognot cfg.seed) in
  let txn_every = txn_every cfg in
  (* Batch payloads carry versions from a reserved range so no two writes
     in the history share bytes — value equality is what lets the checker
     tell linearization points apart. *)
  let batch_version = ref 1_000_000 in
  (* Scans stay single-shard: a scatter-gather scan is not covered by the
     cluster's strict-serializability argument (see [Cluster.scan]), so
     multi-shard workloads trade them for reads. *)
  let scans_ok = cfg.store <> `Cluster || cfg.shards <= 1 in
  let ops =
    Array.init cfg.threads (fun _ ->
        Array.init cfg.ops_per_thread (fun _ ->
            match Prism_workload.Ycsb.next gen with
            | Prism_workload.Ycsb.Update (key, value) ->
                if txn_every > 0 && Rng.int spice txn_every = 0 then
                  Batch
                    ((key, value)
                    :: List.init 2 (fun _ ->
                           let k =
                             Prism_workload.Ycsb.key_of
                               (Rng.int spice cfg.records)
                           in
                           incr batch_version;
                           ( k,
                             Prism_workload.Ycsb.value_for
                               ~size:cfg.value_size ~key:k
                               ~version:!batch_version )))
                else if Rng.int spice cfg.delete_every = 0 then Delete key
                else Put (key, value)
            | Prism_workload.Ycsb.Read key ->
                if scans_ok && Rng.int spice cfg.scan_every = 0 then
                  Scan (key, 8)
                else Get key
            | Prism_workload.Ycsb.Insert (key, value) -> Put (key, value)
            | Prism_workload.Ycsb.Scan (key, n) ->
                if scans_ok then Scan (key, n) else Get key))
  in
  let preload = List.init cfg.records Prism_workload.Ycsb.key_of in
  let initial = Hashtbl.create cfg.records in
  List.iter
    (fun key ->
      Hashtbl.replace initial key
        (Prism_workload.Ycsb.value_for ~size:cfg.value_size ~key ~version:0))
    preload;
  { keys = cfg.records; preload; initial; ops }

(* ---- the store under test ---- *)

type instance = {
  kv : Kv.t;
  hooks : (string * ((int -> unit) option -> unit)) list;
  crash : unit -> unit;
  recover : unit -> unit;
  batch : (tid:int -> (string * bytes) list -> bool) option;
}

let scenario cfg ~keys =
  {
    Setup.default_scenario with
    Setup.records = keys;
    value_size = cfg.value_size;
    threads = cfg.threads;
    num_ssds = 2;
    theta = cfg.theta;
    seed = cfg.seed;
  }

(* A checker-sized PWB ([pwb_size]) is small enough that reclamation
   migrates values to Value Storage during the run, so reads exercise the
   full PWB -> VS -> SVC path and crashes also land between chunk-write
   completions (with the scenario-sized 64 KiB PWBs the whole dataset
   stays in the write buffer). *)
let prism_config cfg ~pwb_size c =
  let c = { c with Prism_core.Config.pwb_size } in
  match cfg.fault with
  | Skip_svc_invalidate ->
      { c with Prism_core.Config.fault_skip_svc_invalidate = true }
  | Skip_hsit_flush -> { c with Prism_core.Config.fault_skip_hsit_flush = true }
  | Scan_skip_pwb -> { c with Prism_core.Config.fault_scan_skip_pwb = true }
  | No_fault | Scan_stale_snapshot | Scan_drop_key | Skip_2pc_log_flush
  | No_lsm_wal ->
      c

(* KVell through a synchronous adapter: [Kv.of_kvell] pipelines puts like
   KVell's injector threads, which acknowledges before durability — fine
   for throughput runs, wrong for a checker that treats the return as the
   response endpoint. *)
let kvell_sync engine s =
  let open Prism_device in
  let d = s.Setup.records * s.Setup.value_size in
  let kvell =
    Prism_baselines.Kvell.create engine ~cost:Cost.default
      ~rng:(Rng.create s.Setup.seed)
      ~ssd_specs:(List.init s.Setup.num_ssds (fun _ -> Spec.samsung_980_pro))
      ~workers_per_ssd:3 ~queue_depth:64
      ~page_cache_bytes:(max (256 * 1024) (d * 32 / 100))
  in
  let kv = Kv.of_kvell kvell in
  ( kvell,
    {
      kv with
      Kv.name = "KVell(sync)";
      put = (fun ~tid:_ key value -> Prism_baselines.Kvell.put kvell key value);
    } )

(* A boundary kind's hook setter over the devices that produce it (one
   NVM, every SSD image, every shard's prepare log): one ordinal, counted
   from the arming instant, numbers them all. *)
let counted setters hook =
  let seen = ref 0 in
  List.iter
    (fun set ->
      set
        (Option.map
           (fun f _ ->
             incr seen;
             f !seen)
           hook))
    setters

(* A checker-sized RocksDB-NVM: tiny memtable and level budgets so a
   short workload exercises flushes and compactions (with production
   sizes nothing would ever leave the memtable and the publish sweep
   would be vacuous). Everything on one NVM device — media layout is
   irrelevant to recovery logic. *)
let lsm_tree cfg engine =
  let open Prism_device in
  let nvm = Model.create engine Spec.optane_dcpmm in
  let target = Prism_baselines.Target.nvm_dev nvm in
  let lcfg =
    {
      Prism_baselines.Lsm_tree.name = "LSM(sweep)";
      memtable_bytes = 2 * 1024;
      l0_mode = Prism_baselines.Lsm_tree.Tables;
      l0_compaction_trigger = 2;
      l0_slowdown = 4;
      l0_stall = 6;
      level_base_bytes = 8 * 1024;
      level_multiplier = 4;
      table_target_bytes = 2 * 1024;
      block_cache_bytes = 16 * 1024;
      wal_enabled = cfg.fault <> No_lsm_wal;
    }
  in
  Prism_baselines.Lsm_tree.create engine lcfg ~cost:Cost.default
    ~rng:(Rng.create cfg.seed) ~wal:target ~l0:target ~levels:target

(* Durability boundaries per store. Prism: every [clwb+sfence] and every
   completed Value-Storage chunk write. KVell's page writes carry no
   content image, so it has no hooks; a sweep cuts it on a virtual-time
   grid instead. LSM: WAL appends and SSTable publishes. Cluster: the
   durable 2PC log appends — the coordinator's commit records (the
   transaction's ack point) and the participants' prepare records and
   applied markers. *)
let store_instance cfg engine ~pwb_size ~keys =
  let tweak = prism_config cfg ~pwb_size in
  match cfg.store with
  | `Prism ->
      let kv, store = Setup.prism ~tweak engine (scenario cfg ~keys) in
      let images =
        Array.to_list (Prism_core.Store.value_storages store)
        |> List.map (fun vs ->
               Prism_media.Ssd_image.set_write_hook
                 (Prism_core.Value_storage.image vs))
      in
      {
        kv;
        hooks =
          [
            ( "nvm-persist",
              counted
                [
                  Prism_media.Nvm.set_persist_hook (Prism_core.Store.nvm store);
                ] );
            ("ssd-write", counted images);
          ];
        crash = (fun () -> Prism_core.Store.crash store);
        recover = (fun () -> ignore (Prism_core.Store.recover store));
        batch = None;
      }
  | `Kvell ->
      let kvell, kv = kvell_sync engine (scenario cfg ~keys) in
      {
        kv;
        hooks = [];
        crash = (fun () -> Prism_baselines.Kvell.crash kvell);
        recover = (fun () -> Prism_baselines.Kvell.recover kvell);
        batch = None;
      }
  | `Lsm ->
      let open Prism_baselines in
      let tree = lsm_tree cfg engine in
      {
        kv = Kv.of_lsm tree;
        hooks =
          [
            ("wal-append", counted [ Lsm_tree.set_wal_hook tree ]);
            ("sstable-publish", counted [ Lsm_tree.set_publish_hook tree ]);
          ];
        crash = (fun () -> Lsm_tree.crash tree);
        recover = (fun () -> Lsm_tree.recover tree);
        batch = None;
      }
  | `Cluster ->
      let open Prism_cluster in
      let ccfg =
        {
          Cluster.default with
          Cluster.shards = max 1 cfg.shards;
          fault_skip_log_flush = cfg.fault = Skip_2pc_log_flush;
          seed = cfg.seed;
        }
      in
      let cluster, kv =
        Cluster.of_scenario ~tweak engine ccfg (scenario cfg ~keys)
      in
      let log nvm = Prism_media.Nvm.set_persist_hook nvm in
      {
        kv;
        hooks =
          [
            ( "coord-log-persist",
              counted [ log (Cluster.coordinator_log cluster) ] );
            ( "prepare-log-persist",
              counted
                (List.init ccfg.Cluster.shards (fun i ->
                     log (Cluster.prepare_log cluster i))) );
          ];
        crash = (fun () -> Cluster.crash cluster);
        (* Every in-doubt transaction gets a definite fate; the check
           compares that fate with the history, which is exactly
           "recovery agrees on commit/abort". *)
        recover =
          (fun () ->
            ignore (Cluster.recover cluster : Cluster.resolution list));
        batch =
          Some
            (fun ~tid writes ->
              Cluster.batch cluster ~tid writes = Cluster.Committed);
      }

(* The two mutants that only rewrite what a scan returns, applied to the
   store's [Kv.scan]: [Scan_drop_key] drops the second item of a result
   of three or more, a provably present in-range key; [Scan_stale_snapshot]
   serves a repeat scan from the same start key out of the previous
   result (ghost deletes, outdated values, missed writes), and a crash
   forgets that result. Any other fault leaves the instance as built. *)
let instance cfg engine ~pwb_size ~keys =
  let s = store_instance cfg engine ~pwb_size ~keys in
  let scan = s.kv.Kv.scan and last = ref None in
  let with_scan scan =
    {
      s with
      kv = { s.kv with Kv.scan };
      crash =
        (fun () ->
          last := None;
          s.crash ());
    }
  in
  match cfg.fault with
  | Scan_drop_key ->
      with_scan (fun ~tid key count ->
          match scan ~tid key count with
          | a :: _ :: (_ :: _ as rest) -> a :: rest
          | items -> items)
  | Scan_stale_snapshot ->
      with_scan (fun ~tid key count ->
          match !last with
          | Some (from, items) when String.equal from key ->
              List.filteri (fun i _ -> i < count) items
          | _ ->
              let items = scan ~tid key count in
              last := Some (key, items);
              items)
  | No_fault | Skip_svc_invalidate | Skip_hsit_flush | Scan_skip_pwb
  | Skip_2pc_log_flush | No_lsm_wal ->
      s

(* ---- one run ---- *)

exception Crash_now

type cut = Clean | Boundary of string * int | Grid of float * int

type run = {
  crashed : (string * int) option;
  counts : (string * int) list;
  clock : float;
  executed : int;
  recorded : int;
  decisions : int;
  fingerprint : int;
  choices : int array;
  violation : Linearize.violation option;
}

(* [Hashtbl.hash] stops after about ten meaningful values, so hashing
   the choice list would see only its head. Fold every decision in
   instead: each step is a bijection of the running hash (xor, then
   multiply by an odd constant), so two equally long lists that differ
   anywhere get different fingerprints. *)
let fingerprint_step h c = (h lxor c) * 0x100000001b3

let fingerprint ~events ~clock choices =
  Array.fold_left fingerprint_step (Hashtbl.hash (events, clock)) choices

let exec hist kv batch ~tid = function
  | Put (key, value) -> kv.Kv.put ~tid key value
  | Get key -> ignore (kv.Kv.get ~tid key)
  | Delete key -> ignore (kv.Kv.delete ~tid key)
  | Scan (key, n) -> ignore (kv.Kv.scan ~tid key n)
  | Batch writes ->
      ignore
        (History.record_batch hist ~tid writes (fun () ->
             Option.get batch ~tid writes))

(* With a cut every hook is armed for the whole run and counts its
   boundaries, so a run that completes reports the totals a sweep walks
   over; the crash event of a [Grid] cut is scheduled before the store
   exists. Once the cut unwinds {!Engine.run}, the run disarms the hooks,
   drops pending events, cuts power, and recovers in a fresh process,
   which then scans every workload key: the history, its pending ops and
   that scan must linearize. A scan, not per-key gets: the checker keeps
   gets in its per-key search, which never sees a batch whole, while a
   scan is an atomic snapshot in the search and so catches a torn
   batch. *)
let run_once ?(tie = Engine.Fifo) ?cut ?(keep_choices = false) ~pwb_size cfg
    w =
  let engine = Engine.create () in
  Engine.set_tie_break engine tie;
  (match cut with
  | Some (Grid (t, _)) ->
      Engine.schedule engine ~after:t (fun () -> raise Crash_now)
  | Some (Clean | Boundary _) | None -> ());
  let hist = History.create () in
  let s = instance cfg engine ~pwb_size ~keys:w.keys in
  let kv = History.wrap hist s.kv in
  let counts =
    match cut with
    | None -> []
    | Some cut ->
        List.map
          (fun (name, arm) ->
            let crash_at =
              match cut with Boundary (b, n) when b = name -> n | _ -> 0
            in
            let count = ref 0 in
            arm
              (Some
                 (fun n ->
                   count := n;
                   if n = crash_at then raise Crash_now));
            (name, count))
          s.hooks
  in
  History.set_enabled hist false;
  Engine.spawn engine (fun () ->
      if w.preload <> [] then begin
        List.iter
          (fun key -> kv.Kv.put ~tid:0 key (Hashtbl.find w.initial key))
          w.preload;
        kv.Kv.quiesce ()
      end;
      History.set_enabled hist true;
      Array.iteri
        (fun tid thread_ops ->
          Engine.spawn engine (fun () ->
              Array.iter (exec hist kv s.batch ~tid) thread_ops))
        w.ops);
  let crashed =
    match Engine.run engine with
    | (_ : float) -> None
    | exception Crash_now ->
        List.iter (fun (_, arm) -> arm None) s.hooks;
        Engine.clear_pending engine;
        s.crash ();
        Engine.spawn engine (fun () ->
            History.cut hist;
            s.recover ();
            ignore (kv.Kv.scan ~tid:0 (Prism_workload.Ycsb.key_of 0) w.keys));
        ignore (Engine.run engine);
        Some
          (match cut with
          | Some (Boundary (b, n)) -> (b, n)
          | Some (Grid (_, i)) -> ("virtual-time", i)
          | Some Clean | None -> assert false)
  in
  let events = History.events hist in
  (* Preloaded keys start at version 0 of their deterministic payload;
     everything else starts absent. *)
  let violation =
    match
      Linearize.check ~init:(Hashtbl.find_opt w.initial) ~init_keys:w.preload
        events
    with
    | Ok () -> None
    | Error v -> Some v
  in
  let clock = Engine.now engine and executed = Engine.events_executed engine in
  {
    crashed;
    counts = List.map (fun (name, c) -> (name, !c)) counts;
    clock;
    executed;
    recorded = Array.length events;
    decisions = Engine.fold_choices engine (fun n _ -> n + 1) 0;
    fingerprint =
      Engine.fold_choices engine fingerprint_step
        (Hashtbl.hash (executed, clock));
    choices = (if keep_choices then Engine.recorded_choices engine else [||]);
    violation;
  }

(* ---- seeded exploration ---- *)

type schedule_stats = {
  index : int;
  tie_seed : int64;
  events : int;
  clock : float;
  choices : int;
  fingerprint : int;
}

type failure = { stats : schedule_stats; violation : string }

type report = {
  schedules : schedule_stats list;
  distinct : int;
  failures : failure list;
}

(* Deterministic per-schedule tie seed: schedule [i] of master seed [s]
   always explores the same interleaving (SplitMix64's odd-gamma mix). *)
let tie_seed_for seed i =
  Int64.logxor seed (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)

(* Exploration runs the YCSB-A slice uncut, over a 16 KiB PWB. Only
   [run_tie] keeps the run's decisions. *)
let run_one ?keep_choices cfg w ~index ~tie_seed ~tie =
  let r = run_once ~tie ?keep_choices ~pwb_size:(16 * 1024) cfg w in
  let stats =
    {
      index;
      tie_seed;
      events = r.recorded;
      clock = r.clock;
      choices = r.decisions;
      fingerprint = r.fingerprint;
    }
  in
  ( stats,
    r.choices,
    Option.map (Format.asprintf "%a" Linearize.pp_violation) r.violation )

let run_schedule cfg w ~index ~tie_seed =
  let stats, _choices, violation =
    run_one cfg w ~index ~tie_seed ~tie:(Engine.Seeded tie_seed)
  in
  (stats, violation)

let run ?(progress = fun _ -> ()) ?(jobs = 1) ~schedules cfg =
  check_fault cfg;
  let w = workload cfg in
  let stats = ref [] in
  let failures = ref [] in
  let fingerprints = Hashtbl.create (2 * schedules) in
  let merge (s, fail) =
    stats := s :: !stats;
    Hashtbl.replace fingerprints s.fingerprint ();
    (match fail with
    | Some violation -> failures := { stats = s; violation } :: !failures
    | None -> ());
    progress s
  in
  if jobs <= 1 then
    (* Serial: run and merge interleaved, so [progress] stays live. *)
    for i = 0 to schedules - 1 do
      merge (run_schedule cfg w ~index:i ~tie_seed:(tie_seed_for cfg.seed i))
    done
  else begin
    (* Schedules are independent by construction (each names its own
       interleaving via its tie seed), so this is a pure fleet farm;
       merging in index order makes the report byte-identical to the
       serial loop. *)
    let results =
      Prism_fleet.Fleet.farm ~jobs schedules (fun i ->
          run_schedule cfg w ~index:i ~tie_seed:(tie_seed_for cfg.seed i))
    in
    Array.iter merge results
  end;
  {
    schedules = List.rev !stats;
    distinct = Hashtbl.length fingerprints;
    failures = List.rev !failures;
  }

let replay cfg ~tie_seed =
  check_fault cfg;
  let stats, fail = run_schedule cfg (workload cfg) ~index:0 ~tie_seed in
  ignore stats;
  fail

(* ---- DPOR exploration ---- *)

type dpor_failure = {
  class_index : int;
  found_at_run : int;
  choices : int array;
  violation : string;
}

type dpor_report = {
  classes : int;
  runs : int;
  pruned : int;
  complete : bool;
  dpor_failures : dpor_failure list;
}

let run_dpor ?(progress = fun _ -> ()) ?(jobs = 1) ~max_classes cfg =
  (* The run body must be pure with respect to exploration state so it
     can execute on a worker process: no counters, no progress calls.
     The committed run number arrives via [on_commit] (serial order),
     which is where progress fires — so a stats line is only ever
     reported for runs the serial walk would have executed, with the
     index it would have carried. *)
  check_fault cfg;
  let w = workload cfg in
  let run ~choose =
    let stats, _choices, violation =
      run_one cfg w ~index:0 ~tie_seed:0L ~tie:(Engine.Guided choose)
    in
    (stats, violation)
  in
  let report =
    Dpor.explore ~jobs
      ~on_commit:(fun ~run:r (stats, _) -> progress { stats with index = r - 1 })
      ~max_classes ~dependent:History.conflicting run
  in
  let dpor_failures =
    List.filter_map
      (fun (c : (schedule_stats * string option) Dpor.class_result) ->
        match snd c.Dpor.result with
        | Some violation ->
            Some
              {
                class_index = c.Dpor.index;
                found_at_run = c.Dpor.run;
                choices = c.Dpor.choices;
                violation;
              }
        | None -> None)
      report.Dpor.classes
  in
  {
    classes = report.Dpor.explored;
    runs = report.Dpor.runs;
    pruned = report.Dpor.pruned;
    complete = report.Dpor.complete;
    dpor_failures;
  }

(* ---- choice-list replay and shrinking ---- *)

let run_tie cfg ~tie =
  check_fault cfg;
  let _stats, choices, violation =
    run_one ~keep_choices:true cfg (workload cfg) ~index:0 ~tie_seed:0L ~tie
  in
  (choices, violation)

let replay_in cfg w ~choices =
  let _stats, _recorded, violation =
    run_one cfg w ~index:0 ~tie_seed:0L ~tie:(Engine.Replay choices)
  in
  violation

let replay_choices cfg ~choices =
  check_fault cfg;
  replay_in cfg (workload cfg) ~choices

(* Trailing FIFO entries are no-ops under replay (an exhausted list
   reads as 0): strip them so a reported list is the shortest one that
   reproduces. *)
let strip_fifo_tail choices =
  let len = ref (Array.length choices) in
  while !len > 0 && choices.(!len - 1) = 0 do
    decr len
  done;
  Array.sub choices 0 !len

type shrunk = {
  minimal : int array;
  non_fifo : int;
  replays : int;
  shrunk_violation : string;
}

let count_non_fifo choices =
  Array.fold_left (fun acc c -> if c <> 0 then acc + 1 else acc) 0 choices

(* Delta-debugging toward FIFO: choice 0 at a tie point is the FIFO pick
   (lowest seq), and an exhausted/over-long replay degrades to FIFO too,
   so "minimal" means "fewest decision points where the schedule departs
   from scheduling order". Reverting a choice changes every downstream
   tie set, so each candidate is validated by a full replay; whatever
   violation the replay reports keeps the candidate — the shrunk
   schedule stays a genuine counterexample throughout.

   A recorded schedule carries hundreds of non-FIFO decisions of which a
   handful matter, so reverting one index per replay would cost O(n)
   simulations. Instead, ddmin-style: revert whole blocks of decisions,
   halving the block size when no block can be reverted, down to single
   indices — O(k log n) replays when k decisions are load-bearing.
   [max_replays] caps the cost; the result is minimal-so-far if hit. *)
let shrink ?(max_replays = 200) cfg ~choices =
  check_fault cfg;
  let w = workload cfg in
  match replay_in cfg w ~choices with
  | None -> None
  | Some v0 ->
      let n = Array.length choices in
      let cur = ref (Array.copy choices) in
      let violation = ref v0 in
      let replays = ref 1 in
      let try_zero lo hi =
        (* [lo, hi): revert to FIFO if a non-FIFO entry is in range and
           the budget allows; true when committed. *)
        let has_non_fifo = ref false in
        for i = lo to hi - 1 do
          if !cur.(i) <> 0 then has_non_fifo := true
        done;
        if (not !has_non_fifo) || !replays >= max_replays then false
        else begin
          let candidate = Array.copy !cur in
          Array.fill candidate lo (hi - lo) 0;
          incr replays;
          match replay_in cfg w ~choices:candidate with
          | Some v ->
              cur := candidate;
              violation := v;
              true
          | None -> false
        end
      in
      let block = ref (max 1 ((n + 3) / 4)) in
      let done_ = ref (n = 0) in
      while not !done_ do
        let improved = ref false in
        (* Right to left: late choices affect the least downstream
           schedule, so they revert with the highest success rate. *)
        let hi = ref n in
        while !hi > 0 do
          let lo = max 0 (!hi - !block) in
          if try_zero lo !hi then improved := true;
          hi := lo
        done;
        if !replays >= max_replays then done_ := true
        else if !block > 1 then block := !block / 2
        else if not !improved then done_ := true
      done;
      let minimal = strip_fifo_tail !cur in
      Some
        {
          minimal;
          non_fifo = count_non_fifo minimal;
          replays = !replays;
          shrunk_violation = !violation;
        }
