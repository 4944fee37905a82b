open Prism_sim
open Prism_harness
open Prism_fleet

exception Crash_now

type config = {
  store : [ `Prism | `Kvell | `Lsm | `Cluster ];
  placement : [ `Static | `Hotness ];
  threads : int;
  keys_per_thread : int;
  ops_per_thread : int;
  value_size : int;
  crash_every : int;
  fault : Explore.fault;
  lsm_wal : bool;
  shards : int;
  txn_every : int;
  seed : int64;
}

let default =
  {
    store = `Prism;
    placement = `Static;
    threads = 4;
    keys_per_thread = 24;
    ops_per_thread = 60;
    value_size = 128;
    crash_every = 5;
    fault = Explore.No_fault;
    lsm_wal = true;
    shards = 2;
    txn_every = 4;
    seed = 1L;
  }

type violation = {
  crash_point : int;
  boundary : string;
  key : string;
  detail : string;
}

type report = {
  crash_points : int;
  boundaries : (string * int) list;  (** boundary kind -> clean-run count *)
  violations : violation list;
}

(* ---- deterministic workload ---- *)

(* [Single (key, Some v)] is a put of version [v]; [Single (key, None)]
   a delete. [Batch] is a multi-key 2PC write batch (cluster only). *)
type op =
  | Single of string * int option
  | Batch of (string * int) list

(* Each thread owns a disjoint key range. With [txn_every > 0] every
   [txn_every]-th op is a write batch over the thread's own range — the
   keys still hash across shards, so most batches have several 2PC
   participants. Batch versions live in a reserved range (>= 1000) so a
   recovered value names exactly one write. *)
let thread_ops cfg ~txn_every tid =
  let rng = Rng.create (Int64.add cfg.seed (Int64.of_int ((tid * 7919) + 1))) in
  let key_at i = Prism_workload.Ycsb.key_of ((tid * cfg.keys_per_thread) + i) in
  Array.init cfg.ops_per_thread (fun j ->
      if txn_every > 0 && j mod txn_every = txn_every - 1 then begin
        let base = Rng.int rng cfg.keys_per_thread in
        let n = min cfg.keys_per_thread (2 + Rng.int rng 2) in
        Batch
          (List.init n (fun s ->
               ( key_at ((base + s) mod cfg.keys_per_thread),
                 1000 + (j * 10) + s )))
      end
      else
        let key = key_at (Rng.int rng cfg.keys_per_thread) in
        if Rng.int rng 5 = 0 then Single (key, None)
        else Single (key, Some (j + 1)))

let value_of cfg ~key ~version =
  Prism_workload.Ycsb.value_for ~size:cfg.value_size ~key ~version

(* What one store contributes to a run: its client handle, its named
   durability boundaries, power-cut and recovery, and (cluster only) a
   write-batch submitter answering "committed?". Each boundary's hook
   setter arms [Some f] to be called with the boundary's ordinal counted
   from the arming instant, or disarms with [None]. *)
type instance = {
  kv : Kv.t;
  hooks : (string * ((int -> unit) option -> unit)) list;
  crash : unit -> unit;
  recover : unit -> unit;
  batch : (tid:int -> (string * bytes) list -> bool) option;
}

(* Every op goes into [hist]; whatever is still open at a power cut
   becomes a pending op there. *)
let run_workload cfg s hist ops =
  let kv = History.wrap hist s.kv in
  Array.iteri
    (fun tid thread_ops ->
      Engine.spawn (Engine.current ()) (fun () ->
          let hot = Prism_workload.Ycsb.key_of (tid * cfg.keys_per_thread) in
          Array.iter
            (function
              | Single (key, what) ->
                  (match what with
                  | Some version ->
                      kv.Kv.put ~tid key (value_of cfg ~key ~version)
                  | None -> ignore (kv.Kv.delete ~tid key));
                  (* Promotion fires on Value-Storage reads; a write-only
                     sweep would leave the NVM tier empty and the promote
                     copy untested. Each thread re-reads its range's first
                     key after every write — its CLOCK saturates, the key
                     migrates into the tier mid-run, and nvm-persist crash
                     points start landing inside promote copies. *)
                  if cfg.store = `Prism && cfg.placement = `Hotness then
                    ignore (kv.Kv.get ~tid hot)
              | Batch writes ->
                  let payload =
                    List.map
                      (fun (k, v) -> (k, value_of cfg ~key:k ~version:v))
                      writes
                  in
                  ignore
                    (History.record_batch hist ~tid payload (fun () ->
                         Option.get s.batch ~tid payload)))
            thread_ops))
    ops

(* ---- the stores under test ---- *)

let scenario cfg =
  {
    Setup.default_scenario with
    Setup.records = cfg.threads * cfg.keys_per_thread;
    value_size = cfg.value_size;
    threads = cfg.threads;
    num_ssds = 2;
    seed = cfg.seed;
  }

let prism_tweak cfg c =
  (* Small PWBs force reclamation into Value Storage mid-run, so crashes
     also land between chunk-write completions (the ssd-write boundary
     sweep is vacuous if nothing ever leaves the write buffer). *)
  let c = { c with Prism_core.Config.pwb_size = 8 * 1024 } in
  (* Hotness placement adds a third durability path: promotions copy a
     value into the NVM tier with a [write_persist], which the nvm-persist
     hook counts — so the sweep lands crashes inside promote copies and
     between a tier write and its HSIT coupling update. A small tier
     forces demotion write-backs into the sweep too. *)
  let c =
    match cfg.placement with
    | `Static -> c
    | `Hotness -> Prism_core.Config.hotness ~tier_size:(16 * 1024) c
  in
  if cfg.fault = Explore.Skip_hsit_flush then
    { c with Prism_core.Config.fault_skip_hsit_flush = true }
  else c

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
      wal_enabled = cfg.lsm_wal;
    }
  in
  Prism_baselines.Lsm_tree.create engine lcfg ~cost:Cost.default
    ~rng:(Rng.create cfg.seed) ~wal:target ~l0:target ~levels:target

(* Prism: every [clwb+sfence] and every completed Value-Storage chunk
   write. KVell's page writes carry no content image, so it has no
   hooks; the driver cuts it on a virtual-time grid instead. LSM: WAL
   appends and SSTable publishes. Cluster: the durable 2PC log appends —
   the coordinator's commit records (the transaction's ack point) and
   the participants' prepare records and applied markers. *)
let instance cfg engine =
  match cfg.store with
  | `Prism ->
      let kv, store =
        Setup.prism ~tweak:(prism_tweak cfg) engine (scenario cfg)
      in
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
      let kvell, kv = Explore.kvell_sync engine (scenario cfg) in
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
          fault_skip_log_flush = cfg.fault = Explore.Skip_2pc_log_flush;
          seed = cfg.seed;
        }
      in
      let cluster, kv =
        Cluster.of_scenario ~tweak:(prism_tweak cfg) engine ccfg (scenario cfg)
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
        (* Every in-doubt transaction gets a definite fate; the audit
           checks that fate against the history, which is exactly
           "recovery agrees on commit/abort". *)
        recover =
          (fun () ->
            ignore (Cluster.recover cluster : Cluster.resolution list));
        batch =
          Some
            (fun ~tid writes ->
              Cluster.batch cluster ~tid writes = Cluster.Committed);
      }

(* ---- one crash-and-recover run ---- *)

(* A sweep can inject only a fault that is invisible live and loses
   writes across a crash: skipped HSIT pointer persists in a
   Prism-backed store, skipped commit-record persists in the cluster. *)
let check_fault cfg =
  let ok =
    match cfg.fault with
    | Explore.No_fault -> true
    | Skip_hsit_flush -> cfg.store = `Prism || cfg.store = `Cluster
    | Skip_2pc_log_flush -> cfg.store = `Cluster
    | Skip_svc_invalidate | Scan_stale_snapshot | Scan_skip_pwb | Scan_drop_key
      ->
        false
  in
  if not ok then
    invalid_arg "Crash_sweep: the store's sweep cannot inject this fault"

(* After recovery one scan reads every key of the thread ranges; the
   history, its pending ops and that scan must linearize. A scan, not
   per-key gets: the checker keeps gets in its per-key search, which
   never sees a batch whole, while a scan is an atomic snapshot in the
   search and so catches a torn batch. *)
let audit cfg s hist ~crash_point ~boundary =
  let kv = History.wrap hist s.kv in
  ignore
    (kv.Kv.scan ~tid:0
       (Prism_workload.Ycsb.key_of 0)
       (cfg.threads * cfg.keys_per_thread));
  match Linearize.check (History.events hist) with
  | Ok () -> []
  | Error v ->
      [
        {
          crash_point;
          boundary;
          key = v.Linearize.key;
          detail = Format.asprintf "%a" Linearize.pp_violation v;
        };
      ]

(* Where a run cuts power: nowhere, at the n-th boundary of a named kind,
   or (stores without hooks) at a virtual time, reported as its grid
   index. *)
type cut = Clean | Boundary of string * int | Grid of float * int

type outcome =
  | Completed of { counts : (string * int) list; clock : float; events : int }
  | Crashed of violation list
  | Crashed_before_store  (** the cut fell inside store creation *)

(* Every hook is armed for the whole run and counts its boundaries, so a
   run that completes reports the totals the driver sweeps over. The
   crash event of a [Grid] cut is scheduled before the store process
   spawns. Once the cut unwinds {!Engine.run}, the run disarms the hooks,
   drops pending events, cuts power, and recovers and audits in a fresh
   process. [tie] lets a schedule explorer drive the interleaving. *)
let run_once ?(tie = Engine.Fifo) cfg cut =
  check_fault cfg;
  let engine = Engine.create () in
  Engine.set_tie_break engine tie;
  (match cut with
  | Grid (t, _) -> Engine.schedule engine ~after:t (fun () -> raise Crash_now)
  | Clean | Boundary _ -> ());
  let hist = History.create () in
  let store = ref None in
  let counts = ref [] in
  Engine.spawn engine (fun () ->
      let s = instance cfg engine in
      let txn_every = if s.batch = None then 0 else cfg.txn_every in
      let ops = Array.init cfg.threads (thread_ops cfg ~txn_every) in
      store := Some s;
      counts :=
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
          s.hooks;
      run_workload cfg s hist ops);
  match Engine.run engine with
  | (_ : float) ->
      Completed
        {
          counts = List.map (fun (name, c) -> (name, !c)) !counts;
          clock = Engine.now engine;
          events = Engine.events_executed engine;
        }
  | exception Crash_now -> (
      match !store with
      | None -> Crashed_before_store
      | Some s ->
          List.iter (fun (_, arm) -> arm None) s.hooks;
          Engine.clear_pending engine;
          s.crash ();
          let boundary, crash_point =
            match cut with
            | Boundary (b, n) -> (b, n)
            | Grid (_, i) -> ("virtual-time", i)
            | Clean -> assert false
          in
          let violations = ref [] in
          Engine.spawn engine (fun () ->
              History.cut hist;
              s.recover ();
              violations := audit cfg s hist ~crash_point ~boundary);
          ignore (Engine.run engine);
          Crashed !violations)

let prism_crash_once ?tie cfg ~boundary ~target =
  let name =
    match boundary with
    | `Nvm_persist -> "nvm-persist"
    | `Ssd_write -> "ssd-write"
  in
  let cut = if target > 0 then Boundary (name, target) else Clean in
  match run_once ?tie { cfg with store = `Prism } cut with
  | Completed { counts; _ } ->
      `Completed
        (List.assoc "nvm-persist" counts, List.assoc "ssd-write" counts)
  | Crashed violations -> `Crashed violations
  | Crashed_before_store -> `Crashed_before_store

(* ---- driver ----

   One clean run counts every boundary kind; each kind then sweeps every
   k-th ordinal up to its count. A store without hooks (KVell) sweeps an
   even virtual-time grid instead, sized to one crash per k executed
   events.

   Parallel shape: every crash target becomes one fleet job — each job
   builds its own engine, store and history from [cfg], so jobs share
   nothing mutable. The merge walks results in ascending target order
   and replays the serial driver's control flow exactly: count, collect
   violations, call [progress], and stop a boundary's sweep at the first
   [Completed] (the serial loop stops issuing targets there; the merge
   stops {e consuming} there, discarding the speculatively-run tail), so
   the report is byte-identical to a serial sweep for any [jobs]. *)

let targets_of ~k ~total =
  Array.init (total / k) (fun i -> (i + 1) * k)

let run ?(progress = fun ~boundary:_ ~crash_point:_ -> ()) ?(jobs = 1) cfg =
  let k = max 1 cfg.crash_every in
  Fleet.with_pool ~jobs (fun pool ->
      let sweeps =
        match run_once cfg Clean with
        | Completed { counts = []; clock; events } ->
            let n = max 1 (events / k) in
            [
              ( "virtual-time",
                n,
                targets_of ~k:1 ~total:n,
                fun i ->
                  Grid (clock *. float_of_int i /. float_of_int (n + 1), i) );
            ]
        | Completed { counts; _ } ->
            List.map
              (fun (name, total) ->
                ( name,
                  total,
                  targets_of ~k ~total,
                  fun n -> Boundary (name, n) ))
              counts
        | Crashed _ | Crashed_before_store -> assert false
      in
      let crash_points = ref 0 in
      let violations = ref [] in
      List.iter
        (fun (name, _, targets, cut) ->
          let results =
            Fleet.map pool (Array.length targets) (fun i ->
                run_once cfg (cut targets.(i)))
          in
          try
            Array.iteri
              (fun i result ->
                match result with
                | Crashed v ->
                    incr crash_points;
                    violations := v @ !violations;
                    progress ~boundary:name ~crash_point:targets.(i)
                | Completed _ ->
                    (* Past the last boundary of this run; the serial sweep
                       stops here, so later targets are dropped
                       unconsumed. *)
                    raise Exit
                | Crashed_before_store -> ())
              results
          with Exit -> ())
        sweeps;
      {
        crash_points = !crash_points;
        boundaries = List.map (fun (name, total, _, _) -> (name, total)) sweeps;
        violations = List.rev !violations;
      })
