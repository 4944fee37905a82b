open Prism_sim
module Store = Prism_core.Store
module Nvm = Prism_media.Nvm

type config = {
  shards : int;
  txn_timeout : float;
  link : Net.link_cfg;
  log_size : int;
  plog_size : int;
  fault_skip_log_flush : bool;
  vote_no_shard : int option;
  mute_shard : int option;
  seed : int64;
}

let default =
  {
    shards = 2;
    txn_timeout = 1e-3;
    link = Net.default_link;
    log_size = 1 lsl 20;
    plog_size = 1 lsl 20;
    fault_skip_log_flush = false;
    vote_no_shard = None;
    mute_shard = None;
    seed = 0x5eedL;
  }

type shard = {
  store : Store.t;
  (* Strict 2PL state: key -> owning txn. Single-key operations never
     hold locks; they wait while a prepared transaction owns the key. *)
  locks : (string, int) Hashtbl.t;
  waiters : (string, (unit -> unit) Queue.t) Hashtbl.t;
  plog : Nvm.t;
  mutable plog_off : int;
  prepared : (int, (string * bytes) list) Hashtbl.t;
  (* Transactions aborted before this shard's prepare finished its
     durable append: the late-finishing prepare must release its own
     locks instead of registering (per-link FIFO puts the decision
     after the prepare's *delivery*, not after its persist). *)
  aborted : (int, unit) Hashtbl.t;
  (* Applies (commit-time and recovery) serialize through one reserved
     PWB tid per shard; the mutex keeps two transactions' applies from
     interleaving on that tid. *)
  mutable apply_lock : Sync.Mutex.t;
  (* Held across every plog append: the offset is read before the
     durable persist suspends and advanced after it returns, so
     unserialized concurrent appends would land on the same offset and
     destroy each other's records. Also keeps the durable image gapless,
     which [parse_durable]'s zero-length terminator relies on. *)
  mutable log_lock : Sync.Mutex.t;
}

type outcome = Committed | Aborted

type t = {
  engine : Engine.t;
  cfg : config;
  net : Net.t;
  shard_tbl : shard array;
  clog : Nvm.t;
  mutable clog_off : int;
  (* Same append race as [log_lock], for concurrent commit records. *)
  mutable clog_lock : Sync.Mutex.t;
  mutable next_txn : int;
  c_commits : Metric.Counter.t;
  c_aborts : Metric.Counter.t;
  c_vote_no : Metric.Counter.t;
  c_timeouts : Metric.Counter.t;
  c_prepares : Metric.Counter.t;
  c_applied : Metric.Counter.t;
  c_routed : Metric.Counter.t;
  c_reapplied : Metric.Counter.t;
}

(* ---- wire/record sizes ---- *)

let hdr = 32 (* message header: kind, txn, lengths *)

let write_bytes (k, v) = String.length k + Bytes.length v + 8

let writes_bytes ws = List.fold_left (fun a w -> a + write_bytes w) 0 ws

(* ---- NVM log records ----

   Framing: [len:4][payload]; a zero length terminates the log. Payload
   tags: 'P' txn:8 n:4 (klen:4 key vlen:4 value)*  prepare record
         'A' txn:8                                 applied marker
         'C' txn:8                                 commit record *)

let put_i32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_i32 b off = Int32.to_int (Bytes.get_int32_le b off)

let frame payload =
  let n = Bytes.length payload in
  let b = Bytes.create (4 + n) in
  put_i32 b 0 n;
  Bytes.blit payload 0 b 4 n;
  b

let tagged tag txn extra =
  let b = Bytes.create (9 + extra) in
  Bytes.set b 0 tag;
  Bytes.set_int64_le b 1 (Int64.of_int txn);
  b

let encode_prepare txn writes =
  let body = tagged 'P' txn (4 + writes_bytes writes) in
  let off = ref 9 in
  put_i32 body !off (List.length writes);
  off := !off + 4;
  List.iter
    (fun (k, v) ->
      let kl = String.length k and vl = Bytes.length v in
      put_i32 body !off kl;
      Bytes.blit_string k 0 body (!off + 4) kl;
      off := !off + 4 + kl;
      put_i32 body !off vl;
      Bytes.blit v 0 body (!off + 4) vl;
      off := !off + 4 + vl)
    writes;
  body

let decode_prepare payload =
  let txn = Int64.to_int (Bytes.get_int64_le payload 1) in
  let n = get_i32 payload 9 in
  let off = ref 13 in
  let writes = ref [] in
  for _ = 1 to n do
    let kl = get_i32 payload !off in
    let k = Bytes.sub_string payload (!off + 4) kl in
    off := !off + 4 + kl;
    let vl = get_i32 payload !off in
    let v = Bytes.sub payload (!off + 4) vl in
    off := !off + 4 + vl;
    writes := (k, v) :: !writes
  done;
  (txn, List.rev !writes)

(* Append a framed record at [off], returning the new tail offset;
   [persist] = false models the injected skip-log-flush fault (the
   record stays in volatile cache lines). *)
let append nvm off payload ~persist =
  let b = frame payload in
  if off + Bytes.length b + 4 > Nvm.size nvm then
    failwith "Cluster: NVM log full";
  if persist then Nvm.write_persist nvm ~off b else Nvm.write nvm ~off b;
  off + Bytes.length b

(* Parse a durable log image into payloads (recovery: charges no time,
   like the restore path of Store.recover — traffic is accounted in
   bulk by the shard recovery itself). *)
let parse_durable nvm =
  let size = Nvm.size nvm in
  let out = ref [] in
  let off = ref 0 in
  let stop = ref false in
  while not !stop do
    if !off + 4 > size then stop := true
    else begin
      let lenb = Nvm.read_durable nvm ~off:!off ~len:4 in
      let len = get_i32 lenb 0 in
      if len = 0 || !off + 4 + len > size then stop := true
      else begin
        out := Nvm.read_durable nvm ~off:(!off + 4) ~len :: !out;
        off := !off + 4 + len
      end
    end
  done;
  (List.rev !out, !off)

(* ---- construction ---- *)

let applier_tid sh = (Store.config sh.store).Prism_core.Config.threads - 1

let create engine cfg ~stores =
  if cfg.shards <= 0 then invalid_arg "Cluster.create: shards must be > 0";
  if Array.length stores <> cfg.shards then
    invalid_arg "Cluster.create: store count <> shards";
  let nvm_spec = Prism_harness.Setup.nvm_array_spec in
  let mk_shard store =
    {
      store;
      locks = Hashtbl.create 64;
      waiters = Hashtbl.create 64;
      plog = Nvm.create engine ~spec:nvm_spec ~size:cfg.plog_size ();
      plog_off = 0;
      prepared = Hashtbl.create 16;
      aborted = Hashtbl.create 16;
      apply_lock = Sync.Mutex.create ();
      log_lock = Sync.Mutex.create ();
    }
  in
  let t =
    {
      engine;
      cfg;
      net =
        Net.create engine ~nodes:(cfg.shards + 1) ~link:cfg.link
          ~seed:cfg.seed ();
      shard_tbl = Array.map mk_shard stores;
      clog = Nvm.create engine ~spec:nvm_spec ~size:cfg.log_size ();
      clog_off = 0;
      clog_lock = Sync.Mutex.create ();
      next_txn = 1;
      c_commits = Metric.Counter.create ();
      c_aborts = Metric.Counter.create ();
      c_vote_no = Metric.Counter.create ();
      c_timeouts = Metric.Counter.create ();
      c_prepares = Metric.Counter.create ();
      c_applied = Metric.Counter.create ();
      c_routed = Metric.Counter.create ();
      c_reapplied = Metric.Counter.create ();
    }
  in
  let reg = Engine.stats engine in
  Net.register_stats t.net reg ~prefix:"net";
  let p name = "prism.cluster." ^ name in
  Stats.register_counter reg (p "txn.commits") t.c_commits;
  Stats.register_counter reg (p "txn.aborts") t.c_aborts;
  Stats.register_counter reg (p "txn.vote_no") t.c_vote_no;
  Stats.register_counter reg (p "txn.timeouts") t.c_timeouts;
  Stats.register_counter reg (p "txn.prepares") t.c_prepares;
  Stats.register_counter reg (p "txn.applied") t.c_applied;
  Stats.register_counter reg (p "txn.reapplied") t.c_reapplied;
  Stats.register_counter reg (p "ops.routed") t.c_routed;
  Stats.gauge_int reg (p "shards") (fun () -> cfg.shards);
  Stats.gauge_int reg (p "log.bytes") (fun () -> t.clog_off);
  Stats.gauge_int reg (p "locks.held") (fun () ->
      Array.fold_left
        (fun acc sh -> acc + Hashtbl.length sh.locks)
        0 t.shard_tbl);
  Nvm.register_stats t.clog reg ~prefix:(p "log.nvm");
  t

let shards t = t.cfg.shards

let net t = t.net

let store t i = t.shard_tbl.(i).store

let coordinator_log t = t.clog

let prepare_log t i = t.shard_tbl.(i).plog

let shard_of_key t key =
  Prism_index.Strhash.to_bucket
    (Prism_index.Strhash.fnv1a key)
    t.cfg.shards

let plog_append sh payload ~persist =
  Sync.Mutex.with_lock sh.log_lock (fun () ->
      sh.plog_off <- append sh.plog sh.plog_off payload ~persist)

let clog_append t payload ~persist =
  Sync.Mutex.with_lock t.clog_lock (fun () ->
      t.clog_off <- append t.clog t.clog_off payload ~persist)

let txn_stats t =
  ( Metric.Counter.value t.c_commits,
    Metric.Counter.value t.c_aborts,
    Metric.Counter.value t.c_prepares )

(* ---- locks ---- *)

let rec wait_unlocked sh key =
  if Hashtbl.mem sh.locks key then begin
    Engine.suspend (fun resume ->
        let q =
          match Hashtbl.find_opt sh.waiters key with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.replace sh.waiters key q;
              q
        in
        Queue.add resume q);
    wait_unlocked sh key
  end

(* Check-then-set with no intervening suspension: atomic in the
   simulation, so partially-taken lock sets cannot exist. *)
let try_lock_all sh txn keys =
  if List.exists (Hashtbl.mem sh.locks) keys then false
  else begin
    List.iter (fun k -> Hashtbl.replace sh.locks k txn) keys;
    true
  end

let release sh keys =
  List.iter
    (fun k ->
      Hashtbl.remove sh.locks k;
      match Hashtbl.find_opt sh.waiters k with
      | None -> ()
      | Some q ->
          Hashtbl.remove sh.waiters k;
          Queue.iter (fun resume -> resume ()) q)
    keys

(* ---- single-key operations ----

   The client process sends a request over the mesh, a handler process
   spawned at the delivery runs the store operation on the shard, and
   the response message fills the client's ivar. Scheduling labels
   (DPOR's conflict tracking) ride along automatically: the delivery
   event inherits the client context's label, and the spawned handler
   inherits the delivery's. *)

let coord = 0

let node_of_shard i = i + 1

let rpc t s ~req_size ~resp_size handler =
  Metric.Counter.incr t.c_routed;
  let sh = t.shard_tbl.(s) in
  let iv = Sync.Ivar.create () in
  Net.send t.net ~src:coord ~dst:(node_of_shard s) ~size:req_size (fun () ->
      Engine.spawn t.engine (fun () ->
          let r = handler sh in
          Net.send t.net ~src:(node_of_shard s) ~dst:coord
            ~size:(hdr + resp_size r) (fun () -> Sync.Ivar.fill iv r)));
  Sync.Ivar.read iv

let put t ~tid key value =
  let s = shard_of_key t key in
  rpc t s
    ~req_size:(hdr + String.length key + Bytes.length value)
    ~resp_size:(fun () -> 0)
    (fun sh ->
      wait_unlocked sh key;
      Store.put sh.store ~tid key value)

let get t ~tid key =
  let s = shard_of_key t key in
  rpc t s
    ~req_size:(hdr + String.length key)
    ~resp_size:(fun r -> match r with Some v -> Bytes.length v | None -> 0)
    (fun sh ->
      wait_unlocked sh key;
      Store.get sh.store ~tid key)

let delete t ~tid key =
  let s = shard_of_key t key in
  rpc t s
    ~req_size:(hdr + String.length key)
    ~resp_size:(fun _ -> 1)
    (fun sh ->
      wait_unlocked sh key;
      Store.delete sh.store ~tid key)

let scan t ~tid key count =
  (* Scatter-gather: every shard returns its first [count] matches, the
     client merges in key order. Shards own disjoint key sets, so the
     merge never sees duplicates. *)
  let parts =
    Array.to_list
      (Array.mapi
         (fun s _ ->
           rpc t s
             ~req_size:(hdr + String.length key)
             ~resp_size:(fun l ->
               List.fold_left
                 (fun a (k, v) -> a + String.length k + Bytes.length v)
                 0 l)
             (fun sh -> Store.scan sh.store ~tid key count))
         t.shard_tbl)
  in
  let rec merge acc n lists =
    if n = 0 then List.rev acc
    else begin
      let best = ref None in
      List.iter
        (fun l ->
          match l with
          | [] -> ()
          | (k, _) :: _ -> (
              match !best with
              | Some (bk, _) when String.compare bk k <= 0 -> ()
              | _ -> best := Some (k, l)))
        lists;
      match !best with
      | None -> List.rev acc
      | Some (_, chosen) ->
          let hd = List.hd chosen in
          let lists =
            List.map (fun l -> if l == chosen then List.tl l else l) lists
          in
          merge (hd :: acc) (n - 1) lists
    end
  in
  merge [] count parts

(* ---- 2PC ---- *)

let dedup_writes writes =
  (* Later write to the same key wins; preserve first-occurrence order. *)
  let seen = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace seen k v) writes;
  List.filter_map
    (fun (k, _) ->
      match Hashtbl.find_opt seen k with
      | Some v ->
          Hashtbl.remove seen k;
          Some (k, v)
      | None -> None)
    writes

let group_by_shard t writes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      let s = shard_of_key t k in
      let l = try Hashtbl.find tbl s with Not_found -> [] in
      Hashtbl.replace tbl s ((k, v) :: l))
    writes;
  Hashtbl.fold (fun s l acc -> (s, List.rev l) :: acc) tbl []
  |> List.sort compare

(* Commit-time apply on one shard: buffered writes go through the normal
   Store.put path on the reserved applier tid, the applied marker
   becomes durable, and only then do the locks fall. *)
let apply_prepared t sh txn =
  match Hashtbl.find_opt sh.prepared txn with
  | None -> ()
  | Some writes ->
      Sync.Mutex.with_lock sh.apply_lock (fun () ->
          let tid = applier_tid sh in
          List.iter (fun (k, v) -> Store.put sh.store ~tid k v) writes;
          plog_append sh (tagged 'A' txn 0) ~persist:true;
          Metric.Counter.incr t.c_applied);
      Hashtbl.remove sh.prepared txn;
      release sh (List.map fst writes)

let batch t ~tid writes =
  match dedup_writes writes with
  | [] -> Committed
  | writes ->
      let txn = t.next_txn in
      t.next_txn <- txn + 1;
      let groups = group_by_shard t writes in
      let total = List.length groups in
      let votes = Sync.Ivar.create () in
      let yes = ref 0 in
      let vote ok =
        if not (Sync.Ivar.is_filled votes) then
          if not ok then Sync.Ivar.fill votes false
          else begin
            incr yes;
            if !yes = total then Sync.Ivar.fill votes true
          end
      in
      List.iter
        (fun (s, group) ->
          ignore tid;
          let sh = t.shard_tbl.(s) in
          Net.send t.net ~src:coord ~dst:(node_of_shard s)
            ~size:(hdr + writes_bytes group)
            (fun () ->
              Engine.spawn t.engine (fun () ->
                  if t.cfg.mute_shard = Some s then
                    (* Simulated lost prepare: no lock, no record, no
                       vote — the coordinator times out and aborts. *)
                    ()
                  else begin
                    let keys = List.map fst group in
                    let ok =
                      t.cfg.vote_no_shard <> Some s
                      && try_lock_all sh txn keys
                    in
                    let ok =
                      if ok then begin
                        plog_append sh (encode_prepare txn group)
                          ~persist:true;
                        (* The persist suspends: an ABORT decision may
                           have landed meanwhile. *)
                        if Hashtbl.mem sh.aborted txn then begin
                          Hashtbl.remove sh.aborted txn;
                          release sh keys;
                          false
                        end
                        else begin
                          Hashtbl.replace sh.prepared txn group;
                          true
                        end
                      end
                      else ok
                    in
                    Metric.Counter.incr t.c_prepares;
                    Net.send t.net ~src:(node_of_shard s) ~dst:coord
                      ~size:hdr (fun () -> vote ok)
                  end)))
        groups;
      let decision = Sync.Ivar.read_with_timeout votes t.cfg.txn_timeout in
      (match decision with
      | Some true ->
          (* Durability point: the commit record. The injected
             skip-log-flush fault acks without persisting — recovery
             will presume abort and the sweep must catch the loss. *)
          clog_append t (tagged 'C' txn 0)
            ~persist:(not t.cfg.fault_skip_log_flush);
          Metric.Counter.incr t.c_commits
      | Some false -> Metric.Counter.incr t.c_vote_no
      | None -> Metric.Counter.incr t.c_timeouts);
      let committed = decision = Some true in
      if not committed then Metric.Counter.incr t.c_aborts;
      (* Decision fan-out: COMMIT applies then releases; ABORT (presumed:
         never logged) just discards the prepare and releases. Per-link
         FIFO guarantees the decision arrives after the prepare. *)
      List.iter
        (fun (s, group) ->
          let sh = t.shard_tbl.(s) in
          Net.send t.net ~src:coord ~dst:(node_of_shard s) ~size:(hdr + 8)
            (fun () ->
              Engine.spawn t.engine (fun () ->
                  if committed then apply_prepared t sh txn
                  else begin
                    match Hashtbl.find_opt sh.prepared txn with
                    | None ->
                        (* Prepare either voted NO (nothing held) or is
                           still persisting: flag it so it self-aborts. *)
                        Hashtbl.replace sh.aborted txn ()
                    | Some writes ->
                        Hashtbl.remove sh.prepared txn;
                        release sh (List.map fst writes)
                  end));
          ignore group)
        groups;
      if committed then Committed else Aborted

(* ---- harness adapter ---- *)

let quiesce t = Array.iter (fun sh -> Store.quiesce sh.store) t.shard_tbl

let kv t =
  {
    Prism_harness.Kv.name = "Prism-cluster";
    stat_prefix = Stats.sanitize "Prism";
    put = (fun ~tid key value -> put t ~tid key value);
    get = (fun ~tid key -> get t ~tid key);
    delete = (fun ~tid key -> delete t ~tid key);
    scan = (fun ~tid key count -> scan t ~tid key count);
    quiesce = (fun () -> quiesce t);
    recover = None;
  }

let with_batches t (kv : Prism_harness.Kv.t) ~every ~records ~seed =
  if every <= 0 then kv
  else begin
    let count = ref 0 in
    let rng = Rng.create (Int64.add seed 0x7cL) in
    {
      kv with
      put =
        (fun ~tid key value ->
          incr count;
          if !count mod every = 0 then
            let extras =
              List.init 2 (fun _ ->
                  (Prism_workload.Ycsb.key_of (Rng.int rng records), value))
            in
            ignore (batch t ~tid ((key, value) :: extras) : outcome)
          else kv.put ~tid key value);
    }
  end

let of_scenario ?tweak engine cfg (s : Prism_harness.Setup.scenario) =
  let per = max 1 (s.records / max 1 cfg.shards) in
  let stores =
    Array.init cfg.shards (fun i ->
        let name = Printf.sprintf "Prism-shard%d" i in
        snd
          (Prism_harness.Setup.prism ?tweak ~name engine
             { s with records = per; threads = s.threads + 1 }))
  in
  let t = create engine cfg ~stores in
  (t, kv t)

(* ---- crash and recovery ---- *)

let crash t =
  Nvm.crash t.clog;
  (* Mutexes held by processes the crash killed mid-suspension were
     never released (the holder is discarded, not unwound) — recreate
     them so recovery's own appends and applies don't deadlock. *)
  t.clog_lock <- Sync.Mutex.create ();
  Array.iter
    (fun sh ->
      Nvm.crash sh.plog;
      Store.crash sh.store;
      Hashtbl.reset sh.locks;
      Hashtbl.reset sh.waiters;
      Hashtbl.reset sh.prepared;
      Hashtbl.reset sh.aborted;
      sh.apply_lock <- Sync.Mutex.create ();
      sh.log_lock <- Sync.Mutex.create ())
    t.shard_tbl

type resolution = {
  res_txn : int;
  res_outcome : outcome;
  res_shards : int list;
}

let recover t =
  Array.iter (fun sh -> ignore (Store.recover sh.store : int)) t.shard_tbl;
  (* The durable coordinator log is the commit authority. *)
  let committed = Hashtbl.create 16 in
  let records, clog_end = parse_durable t.clog in
  List.iter
    (fun p ->
      if Bytes.get p 0 = 'C' then
        Hashtbl.replace committed
          (Int64.to_int (Bytes.get_int64_le p 1))
          ())
    records;
  t.clog_off <- clog_end;
  let doubts = Hashtbl.create 16 in
  Array.iteri
    (fun i sh ->
      let records, plog_end = parse_durable sh.plog in
      sh.plog_off <- plog_end;
      let prepares = Hashtbl.create 16 in
      let applied = Hashtbl.create 16 in
      List.iter
        (fun p ->
          match Bytes.get p 0 with
          | 'P' ->
              let txn, writes = decode_prepare p in
              Hashtbl.replace prepares txn writes
          | 'A' ->
              Hashtbl.replace applied
                (Int64.to_int (Bytes.get_int64_le p 1))
                ()
          | _ -> ())
        records;
      Hashtbl.iter
        (fun txn writes ->
          if not (Hashtbl.mem applied txn) then begin
            let com = Hashtbl.mem committed txn in
            if com then begin
              (* Locks were never released (the applied marker persists
                 before they fall), so no later write raced these keys:
                 re-applying cannot clobber anything newer. *)
              let tid = applier_tid sh in
              List.iter (fun (k, v) -> Store.put sh.store ~tid k v) writes;
              plog_append sh (tagged 'A' txn 0) ~persist:true;
              Metric.Counter.incr t.c_reapplied
            end;
            let prev =
              try Hashtbl.find doubts txn with Not_found -> []
            in
            Hashtbl.replace doubts txn (i :: prev)
          end)
        prepares)
    t.shard_tbl;
  Hashtbl.fold
    (fun txn shard_list acc ->
      {
        res_txn = txn;
        res_outcome =
          (if Hashtbl.mem committed txn then Committed else Aborted);
        res_shards = List.sort compare shard_list;
      }
      :: acc)
    doubts []
  |> List.sort (fun a b -> compare a.res_txn b.res_txn)
