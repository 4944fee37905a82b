open Prism_sim
open Prism_device

type l0_mode = Tables | Container of { capacity : int; column : int }

type config = {
  name : string;
  memtable_bytes : int;
  l0_mode : l0_mode;
  l0_compaction_trigger : int;
  l0_slowdown : int;
  l0_stall : int;
  level_base_bytes : int;
  level_multiplier : int;
  table_target_bytes : int;
  block_cache_bytes : int;
  wal_enabled : bool;
}

type t = {
  engine : Engine.t;
  cfg : config;
  cost : Cost.t;
  rng : Rng.t;
  wal : Target.t;
  l0_target : Target.t;
  level_target : Target.t;
  mutable memtable : Memtable.t;
  mutable immutable_mt : Memtable.t option;
  mutable l0 : Sstable.t list; (* newest first; Tables mode *)
  container : Memtable.t; (* Container mode (MatrixKV matrix container) *)
  mutable levels : Sstable.t array array; (* levels.(i) = L(i+1) *)
  cache : (int * int, int) Lru.t; (* (table id, block) -> charged bytes *)
  (* Durable WAL content, for crash recovery: the records backing the
     active memtable and the immutable one being flushed (newest first).
     Mirrors RocksDB's live + to-be-deleted log files; [wal_frozen] is
     reclaimed when its memtable's flush publishes. *)
  mutable wal_live : (string * bytes option) list;
  mutable wal_frozen : (string * bytes option) list;
  mutable wal_appends : int;
  mutable publishes : int;
  mutable wal_hook : (int -> unit) option;
  mutable publish_hook : (int -> unit) option;
  (* Mailboxes and locks are volatile: a crash kills their waiters with
     [Engine.clear_pending], so {!crash} replaces them wholesale. *)
  mutable flush_wakeup : unit Sync.Mailbox.t;
  mutable compact_wakeup : unit Sync.Mailbox.t;
  rotate_waiters : (unit -> unit) Queue.t;
  stall_waiters : (unit -> unit) Queue.t;
  stalls : Metric.Counter.t;
  compactions : Metric.Counter.t;
  level_cursor : int array;
  (* RocksDB's block cache is guarded by LRU mutexes; the short critical
     section contends under high read concurrency. *)
  mutable cache_lock : Sync.Mutex.t;
  (* WAL append + memtable insert form one serialized critical section —
     the write-group lock every writer passes through in RocksDB. Prism's
     per-thread PWBs exist precisely to avoid this (§7.2). *)
  mutable write_lock : Sync.Mutex.t;
}

let max_levels = 7

let name t = t.cfg.name

let compactions t = Metric.Counter.value t.compactions

let level_bytes_written t = Target.bytes_written t.level_target

let set_wal_hook t hook = t.wal_hook <- hook

let set_publish_hook t hook = t.publish_hook <- hook

(* A new set of SSTables (or container content) became visible and
   durable — flush publish or compaction output install. The hook is the
   crash sweep's "sstable-publish" boundary. *)
let published t =
  t.publishes <- t.publishes + 1;
  match t.publish_hook with Some f -> f t.publishes | None -> ()

(* ---- backpressure ---- *)

let l0_debt t =
  match t.cfg.l0_mode with
  | Tables -> List.length t.l0
  | Container _ -> 0

let container_ratio t =
  match t.cfg.l0_mode with
  | Tables -> 0.0
  | Container { capacity; _ } ->
      float_of_int (Memtable.bytes t.container) /. float_of_int capacity

let rec maybe_stall t =
  if l0_debt t >= t.cfg.l0_stall || container_ratio t >= 1.0 then begin
    Metric.Counter.incr t.stalls;
    Sync.Mailbox.send t.compact_wakeup ();
    Engine.suspend (fun resume -> Queue.add resume t.stall_waiters);
    maybe_stall t
  end
  else if l0_debt t >= t.cfg.l0_slowdown || container_ratio t >= 0.8 then
    (* RocksDB delayed-write rate: ~1 ms sleep per write. *)
    Engine.delay 1e-3

let wake_stalled t =
  let n = Queue.length t.stall_waiters in
  for _ = 1 to n do
    match Queue.take_opt t.stall_waiters with
    | Some resume -> resume ()
    | None -> ()
  done

(* ---- memtable rotation ---- *)

let rec rotate_memtable t =
  match t.immutable_mt with
  | Some _ ->
      (* Previous flush still in progress: writers wait (memtable stall). *)
      Metric.Counter.incr t.stalls;
      Engine.suspend (fun resume -> Queue.add resume t.rotate_waiters);
      if Memtable.bytes t.memtable >= t.cfg.memtable_bytes then
        rotate_memtable t
  | None ->
      t.immutable_mt <- Some t.memtable;
      t.memtable <- Memtable.create ~rng:(Rng.split t.rng) ();
      (* WAL rotation rides the memtable rotation: the live log now backs
         the immutable memtable and is reclaimed once its flush lands. *)
      t.wal_frozen <- t.wal_live;
      t.wal_live <- [];
      Sync.Mailbox.send t.flush_wakeup ()

let charge_steps t steps =
  Engine.delay (float_of_int steps *. t.cost.Cost.compare_key)

let write_record_size key v =
  String.length key + (match v with Some v -> Bytes.length v | None -> 0) + 17

let put_internal t key v =
  maybe_stall t;
  Sync.Mutex.with_lock t.write_lock (fun () ->
      if t.cfg.wal_enabled then begin
        Target.write t.wal ~size:(write_record_size key v);
        Engine.delay (Target.io_overhead t.wal t.cost);
        (* The record is durable from here: log its content for replay
           and fire the crash sweep's "wal-append" boundary. A crash
           raised by the hook loses the memtable insert below — the op is
           unacknowledged but its WAL record must survive recovery. *)
        t.wal_live <- (key, v) :: t.wal_live;
        t.wal_appends <- t.wal_appends + 1;
        (match t.wal_hook with Some f -> f t.wal_appends | None -> ())
      end;
      let steps = Memtable.put t.memtable key v in
      charge_steps t steps;
      if Memtable.bytes t.memtable >= t.cfg.memtable_bytes then
        rotate_memtable t)

let put t key v =
  if Bytes.length v = 0 then invalid_arg "Lsm_tree.put: empty value";
  put_internal t key (Some v)

let remove t key = put_internal t key None

(* ---- flush ---- *)

let flush_immutable t =
  match t.immutable_mt with
  | None -> ()
  | Some mt ->
      let entries = Memtable.to_list mt in
      charge_steps t (List.length entries);
      (match t.cfg.l0_mode with
      | Tables ->
          let table = Sstable.build entries in
          Target.write t.l0_target ~size:(Sstable.bytes table);
          Engine.delay (Target.io_overhead t.l0_target t.cost);
          t.l0 <- table :: t.l0
      | Container _ ->
          (* Merge into the sorted NVM container. *)
          let total = ref 0 in
          List.iter
            (fun (k, v) ->
              ignore (Memtable.put t.container k v);
              total := !total + write_record_size k v)
            entries;
          Target.write t.l0_target ~size:!total);
      (* Flush output is durable: reclaim the WAL segment that backed
         this memtable, then announce the publish boundary. *)
      t.wal_frozen <- [];
      published t;
      t.immutable_mt <- None;
      let n = Queue.length t.rotate_waiters in
      for _ = 1 to n do
        match Queue.take_opt t.rotate_waiters with
        | Some resume -> resume ()
        | None -> ()
      done;
      Sync.Mailbox.send t.compact_wakeup ()

(* ---- compaction ---- *)

let level_limit t n =
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  t.cfg.level_base_bytes * pow t.cfg.level_multiplier n

let level_bytes t n =
  Array.fold_left (fun acc tab -> acc + Sstable.bytes tab) 0 t.levels.(n)

(* k-way merge of ascending entry lists; earlier lists are newer and win
   duplicate keys. Tombstones are dropped when merging into the bottom. *)
let merge_entries ~drop_tombstones inputs =
  let arrays = Array.of_list (List.map Array.of_list inputs) in
  let idx = Array.make (Array.length arrays) 0 in
  let out = ref [] in
  let continue_merge = ref true in
  while !continue_merge do
    let best = ref None in
    Array.iteri
      (fun src i ->
        if i < Array.length arrays.(src) then begin
          let k, _ = arrays.(src).(i) in
          match !best with
          | None -> best := Some (src, k)
          | Some (_, bk) ->
              if String.compare k bk < 0 then best := Some (src, k)
        end)
      idx;
    match !best with
    | None -> continue_merge := false
    | Some (src, k) ->
        let _, v = arrays.(src).(idx.(src)) in
        Array.iteri
          (fun s i ->
            if
              i < Array.length arrays.(s)
              && String.equal (fst arrays.(s).(i)) k
            then idx.(s) <- i + 1)
          idx;
        (match v with
        | None when drop_tombstones -> ()
        | v -> out := (k, v) :: !out)
  done;
  List.rev !out

let build_tables t entries =
  let target = t.cfg.table_target_bytes in
  let tables = ref [] in
  let current = ref [] in
  let bytes = ref 0 in
  let flush () =
    match List.rev !current with
    | [] -> ()
    | es ->
        tables := Sstable.build es :: !tables;
        current := [];
        bytes := 0
  in
  List.iter
    (fun ((k, v) as e) ->
      current := e :: !current;
      bytes :=
        !bytes + String.length k
        + (match v with Some v -> Bytes.length v | None -> 0)
        + 12;
      if !bytes >= target then flush ())
    entries;
  flush ();
  List.rev !tables

let evict_cached_blocks t tables =
  List.iter
    (fun tab ->
      for b = 0 to Sstable.block_count tab - 1 do
        Lru.remove t.cache (Sstable.id tab, b)
      done)
    tables

let charge_level_io t ~read_tables ~written_tables =
  let read_bytes =
    List.fold_left (fun acc tab -> acc + Sstable.bytes tab) 0 read_tables
  in
  let write_bytes =
    List.fold_left (fun acc tab -> acc + Sstable.bytes tab) 0 written_tables
  in
  if read_bytes > 0 then Target.read t.level_target ~size:read_bytes;
  if write_bytes > 0 then Target.write t.level_target ~size:write_bytes;
  Engine.delay
    (t.cost.Cost.crc_per_byte *. float_of_int (read_bytes + write_bytes))

let replace_level t n ~remove ~add =
  let removed tab =
    List.exists (fun r -> Sstable.id r = Sstable.id tab) remove
  in
  let kept =
    Array.to_list t.levels.(n) |> List.filter (fun tab -> not (removed tab))
  in
  let merged =
    List.sort
      (fun a b -> String.compare (Sstable.min_key a) (Sstable.min_key b))
      (kept @ add)
  in
  t.levels.(n) <- Array.of_list merged

let overlapping_in_level t n ~min ~max =
  Array.to_list t.levels.(n)
  |> List.filter (fun tab -> Sstable.overlaps tab ~min ~max)

let bottom_level t =
  let rec last n =
    if n + 1 < max_levels && Array.length t.levels.(n + 1) > 0 then
      last (n + 1)
    else n
  in
  last 0

(* L0 (overlapping tables) -> L1: reads every L0 table plus the
   overlapping L1 range — the write-amplification source LSM papers fight
   over. *)
let compact_l0_tables t =
  if List.length t.l0 < t.cfg.l0_compaction_trigger then false
  else begin
    let l0_tables = t.l0 in
    Metric.Counter.incr t.compactions;
    let min_key =
      List.fold_left
        (fun acc tab ->
          if String.compare (Sstable.min_key tab) acc < 0 then
            Sstable.min_key tab
          else acc)
        (Sstable.min_key (List.hd l0_tables))
        l0_tables
    in
    let max_key =
      List.fold_left
        (fun acc tab ->
          if String.compare (Sstable.max_key tab) acc > 0 then
            Sstable.max_key tab
          else acc)
        "" l0_tables
    in
    let l1_overlap = overlapping_in_level t 0 ~min:min_key ~max:max_key in
    let l0_bytes =
      List.fold_left (fun acc tab -> acc + Sstable.bytes tab) 0 l0_tables
    in
    Target.read t.l0_target ~size:l0_bytes;
    let inputs =
      List.map Sstable.to_list l0_tables
      @ List.map Sstable.to_list l1_overlap
    in
    let drop = bottom_level t = 0 in
    let merged = merge_entries ~drop_tombstones:drop inputs in
    charge_steps t (List.length merged);
    let outputs = if merged = [] then [] else build_tables t merged in
    charge_level_io t ~read_tables:l1_overlap ~written_tables:outputs;
    t.l0 <- [];
    replace_level t 0 ~remove:l1_overlap ~add:outputs;
    evict_cached_blocks t (l0_tables @ l1_overlap);
    published t;
    wake_stalled t;
    true
  end

(* MatrixKV column compaction: drain one key-range column of roughly
   [column] bytes from the NVM matrix container into L1 — much smaller
   units than a whole-L0 compaction, hence smaller stalls. *)
let compact_container t ~capacity ~column =
  if Memtable.bytes t.container < capacity / 2 then false
  else begin
    Metric.Counter.incr t.compactions;
    let taken = ref [] in
    let bytes = ref 0 in
    Memtable.iter_while t.container (fun k v ->
        taken := (k, v) :: !taken;
        bytes := !bytes + write_record_size k v;
        !bytes < column);
    match List.rev !taken with
    | [] -> false
    | col ->
        let min_key = fst (List.hd col) in
        let max_key = fst (List.nth col (List.length col - 1)) in
        Target.read t.l0_target ~size:!bytes;
        let l1_overlap = overlapping_in_level t 0 ~min:min_key ~max:max_key in
        let drop = bottom_level t = 0 in
        let merged =
          merge_entries ~drop_tombstones:drop
            (col :: List.map Sstable.to_list l1_overlap)
        in
        charge_steps t (List.length merged);
        let outputs = if merged = [] then [] else build_tables t merged in
        charge_level_io t ~read_tables:l1_overlap ~written_tables:outputs;
        replace_level t 0 ~remove:l1_overlap ~add:outputs;
        evict_cached_blocks t l1_overlap;
        List.iter (fun (k, _) -> Memtable.delete t.container k) col;
        published t;
        wake_stalled t;
        true
  end

(* Ln -> Ln+1 when Ln exceeds its size budget. *)
let compact_level t n =
  if level_bytes t n <= level_limit t n || Array.length t.levels.(n) = 0
  then false
  else begin
    Metric.Counter.incr t.compactions;
    let tables = t.levels.(n) in
    let cursor = t.level_cursor.(n) mod Array.length tables in
    t.level_cursor.(n) <- cursor + 1;
    let tab = tables.(cursor) in
    let overlap =
      overlapping_in_level t (n + 1) ~min:(Sstable.min_key tab)
        ~max:(Sstable.max_key tab)
    in
    let drop = bottom_level t = n + 1 in
    let merged =
      merge_entries ~drop_tombstones:drop
        (Sstable.to_list tab :: List.map Sstable.to_list overlap)
    in
    charge_steps t (List.length merged);
    let outputs = if merged = [] then [] else build_tables t merged in
    charge_level_io t ~read_tables:(tab :: overlap) ~written_tables:outputs;
    replace_level t n ~remove:[ tab ] ~add:[];
    replace_level t (n + 1) ~remove:overlap ~add:outputs;
    evict_cached_blocks t (tab :: overlap);
    published t;
    true
  end

let compact_once t =
  let l0_done =
    match t.cfg.l0_mode with
    | Tables -> compact_l0_tables t
    | Container { capacity; column } -> compact_container t ~capacity ~column
  in
  if l0_done then true
  else begin
    let rec try_levels n =
      if n >= max_levels - 1 then false
      else if compact_level t n then true
      else try_levels (n + 1)
    in
    try_levels 0
  end

(* ---- background processes ---- *)

let start t =
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        Sync.Mailbox.recv t.flush_wakeup;
        flush_immutable t;
        loop ()
      in
      loop ());
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        Sync.Mailbox.recv t.compact_wakeup;
        let rec drain () = if compact_once t then drain () in
        drain ();
        loop ()
      in
      loop ())

let create engine cfg ~cost ~rng ~wal ~l0 ~levels =
  let t =
    {
      engine;
      cfg;
      cost;
      rng;
      wal;
      l0_target = l0;
      level_target = levels;
      memtable = Memtable.create ~rng:(Rng.split rng) ();
      immutable_mt = None;
      l0 = [];
      container = Memtable.create ~rng:(Rng.split rng) ();
      levels = Array.make max_levels [||];
      cache =
        Lru.create
          ~capacity:(max 4096 cfg.block_cache_bytes)
          ~weight:(fun b -> b)
          ();
      wal_live = [];
      wal_frozen = [];
      wal_appends = 0;
      publishes = 0;
      wal_hook = None;
      publish_hook = None;
      flush_wakeup = Sync.Mailbox.create ();
      compact_wakeup = Sync.Mailbox.create ();
      rotate_waiters = Queue.create ();
      stall_waiters = Queue.create ();
      stalls = Metric.Counter.create ();
      compactions = Metric.Counter.create ();
      level_cursor = Array.make max_levels 0;
      cache_lock = Sync.Mutex.create ();
      write_lock = Sync.Mutex.create ();
    }
  in
  (* Publish under the variant's sanitized name ("rocksdb-nvm.*", ...);
     several trees on one engine keep distinct prefixes as long as their
     names differ. *)
  let reg = Engine.stats engine in
  let p name = Stats.sanitize cfg.name ^ "." ^ name in
  Stats.register_counter reg (p "compactions") t.compactions;
  Stats.register_counter reg (p "stalls") t.stalls;
  Stats.gauge_int reg (p "cache.hits") (fun () -> Lru.hits t.cache);
  Stats.gauge_int reg (p "cache.misses") (fun () -> Lru.misses t.cache);
  Stats.gauge_int reg (p "wal.appends") (fun () -> t.wal_appends);
  Stats.gauge_int reg (p "sstable.publishes") (fun () -> t.publishes);
  Stats.gauge_int reg (p "l0.tables") (fun () -> List.length t.l0);
  Stats.gauge_int reg (p "bytes_written") (fun () ->
      Target.bytes_written t.level_target);
  start t;
  t

(* ---- reads ---- *)

let read_block t ~target tab block =
  let key = (Sstable.id tab, block) in
  let hit =
    Sync.Mutex.with_lock t.cache_lock (fun () ->
        (* LRU probe, reference counting and list splice under the cache
           mutex — RocksDB's well-known read-path serialization point
           (~0.6 us held per access, which caps block-cache throughput
           and flattens read scalability at high core counts). *)
        Engine.delay (20.0 *. t.cost.Cost.cache_op);
        Option.is_some (Lru.find t.cache key))
  in
  Engine.delay (5.0 *. t.cost.Cost.compare_key);
  if not hit then begin
    let b = Sstable.block_bytes tab ~block in
    Target.read target ~size:b;
    Engine.delay (Target.io_overhead target t.cost);
    (* Checksum verification on block load. *)
    Engine.delay (t.cost.Cost.crc_per_byte *. float_of_int b);
    Sync.Mutex.with_lock t.cache_lock (fun () ->
        Engine.delay (3.0 *. t.cost.Cost.cache_op);
        Lru.add t.cache key b)
  end

let charge_bloom t tab =
  ignore tab;
  Engine.delay (7.0 *. t.cost.Cost.cache_op)

let table_lookup t ~target tab key =
  if
    String.compare key (Sstable.min_key tab) >= 0
    && String.compare key (Sstable.max_key tab) <= 0
  then begin
    charge_bloom t tab;
    if not (Sstable.may_contain tab key) then None
    else begin
      match Sstable.locate_block tab key with
      | None -> None
      | Some block ->
          read_block t ~target tab block;
          Sstable.find_in_block tab ~block key
    end
  end
  else None

(* Find the unique candidate table in a sorted non-overlapping level. *)
let level_candidate t n key =
  let tables = t.levels.(n) in
  if Array.length tables = 0 then None
  else begin
    Engine.delay t.cost.Cost.index_node;
    let lo = ref 0 and hi = ref (Array.length tables - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if String.compare (Sstable.min_key tables.(mid)) key <= 0 then
        lo := mid
      else hi := mid - 1
    done;
    let tab = tables.(!lo) in
    if
      String.compare key (Sstable.min_key tab) >= 0
      && String.compare key (Sstable.max_key tab) <= 0
    then Some tab
    else None
  end

(* Newest entry below the memtables: L0 tables (or the NVM container),
   then the levels. [Some None] is a tombstone. *)
let search_durable t key =
  let from_l0 =
    match t.cfg.l0_mode with
    | Tables ->
        let rec search = function
          | [] -> None
          | tab :: rest -> (
              match table_lookup t ~target:t.l0_target tab key with
              | Some v -> Some v
              | None -> search rest)
        in
        search t.l0
    | Container _ -> (
        match Memtable.find t.container key with
        | Some v ->
            (* Container lives on NVM: charge a record read. *)
            Target.read t.l0_target ~size:(write_record_size key v);
            Some v
        | None -> None)
  in
  match from_l0 with
  | Some _ as r -> r
  | None ->
      let rec search n =
        if n >= max_levels then None
        else begin
          match level_candidate t n key with
          | Some tab -> (
              match table_lookup t ~target:t.level_target tab key with
              | Some v -> Some v
              | None -> search (n + 1))
          | None -> search (n + 1)
        end
      in
      search 0

let get t key =
  (* Fixed Get-path software overhead: snapshot/superversion acquisition,
     comparator dispatch, MemTable seek setup — the CPU cost Lepers et
     al. and the paper (Â§3) blame for LSM reads. *)
  Engine.delay 1.5e-6;
  Engine.delay (2.0 *. t.cost.Cost.index_node);
  let from_mt = Memtable.find t.memtable key in
  let resolved =
    match from_mt with
    | Some _ as r -> r
    | None -> (
        match t.immutable_mt with
        | Some mt -> Memtable.find mt key
        | None -> None)
  in
  let resolved =
    match resolved with Some _ as r -> r | None -> search_durable t key
  in
  match resolved with Some (Some v) -> Some v | Some None | None -> None

let remove_existed t key =
  maybe_stall t;
  (* Probe the durable levels before taking [write_lock]: the search may
     suspend on IO, and holding the lock across it would queue every
     writer behind a read. *)
  let probed_at = t.publishes in
  let durable = search_durable t key in
  Sync.Mutex.with_lock t.write_lock (fun () ->
      (* Existence is decided inside the same critical section that
         inserts the tombstone. A write that landed during the probe is
         either still in a memtable or was moved below them by a flush,
         which publishes; only then can the probe be stale, so search
         again. Compaction preserves each key's logical value. *)
      let prior =
        match Memtable.find t.memtable key with
        | Some _ as r -> r
        | None -> (
            match t.immutable_mt with
            | Some mt -> Memtable.find mt key
            | None -> None)
      in
      let prior =
        match prior with
        | Some _ as r -> r
        | None ->
            if t.publishes = probed_at then durable else search_durable t key
      in
      let existed = match prior with Some (Some _) -> true | _ -> false in
      if t.cfg.wal_enabled then begin
        Target.write t.wal ~size:(write_record_size key None);
        Engine.delay (Target.io_overhead t.wal t.cost);
        t.wal_live <- (key, None) :: t.wal_live;
        t.wal_appends <- t.wal_appends + 1;
        (match t.wal_hook with Some f -> f t.wal_appends | None -> ())
      end;
      let steps = Memtable.put t.memtable key None in
      charge_steps t steps;
      if Memtable.bytes t.memtable >= t.cfg.memtable_bytes then
        rotate_memtable t;
      existed)

(* ---- scan ---- *)

let table_range t ~target tab ~from ~count =
  let acc = ref [] in
  let n = ref 0 in
  let last_block = ref (-1) in
  Sstable.iter_from tab from (fun ~block k v ->
      if block <> !last_block then begin
        read_block t ~target tab block;
        last_block := block
      end;
      acc := (k, v) :: !acc;
      incr n;
      !n < count);
  List.rev !acc

let scan t ~from ~count =
  Engine.delay t.cost.Cost.cache_op;
  (* Over-fetch each source: duplicates shadowed by newer levels and
     tombstones consume merged entries without producing output. *)
  let fetch = (count * 2) + 32 in
  let sources = ref [] in
  (* Order matters: newest first so merge resolves duplicates correctly. *)
  let add src = sources := src :: !sources in
  let rec level_source n acc remaining start =
    if remaining <= 0 then List.concat (List.rev acc)
    else begin
      let tables = t.levels.(n) in
      (* First table whose max key >= start. *)
      let idx = ref (-1) in
      Array.iteri
        (fun i tab ->
          if !idx < 0 && String.compare (Sstable.max_key tab) start >= 0 then
            idx := i)
        tables;
      if !idx < 0 then List.concat (List.rev acc)
      else begin
        let tab = tables.(!idx) in
        let part = table_range t ~target:t.level_target tab ~from:start ~count:remaining in
        let got = List.length part in
        if got = 0 || !idx = Array.length tables - 1 then
          List.concat (List.rev (part :: acc))
        else begin
          let next_start = Sstable.max_key tab ^ "\000" in
          level_source n (part :: acc) (remaining - got) next_start
        end
      end
    end
  in
  (* Reverse priority: deepest levels first into [sources], newest last. *)
  for n = max_levels - 1 downto 0 do
    if Array.length t.levels.(n) > 0 then
      add (level_source n [] fetch from)
  done;
  (match t.cfg.l0_mode with
  | Tables ->
      List.rev t.l0
      |> List.iter (fun tab ->
             add (table_range t ~target:t.l0_target tab ~from ~count:fetch))
  | Container _ ->
      let part = Memtable.scan t.container ~from ~count:fetch in
      let bytes =
        List.fold_left
          (fun acc (k, v) -> acc + write_record_size k v)
          0 part
      in
      if bytes > 0 then Target.read t.l0_target ~size:bytes;
      add part);
  (match t.immutable_mt with
  | Some mt -> add (Memtable.scan mt ~from ~count:fetch)
  | None -> ());
  add (Memtable.scan t.memtable ~from ~count:fetch);
  (* Merging-iterator CPU: every examined entry pays heap maintenance,
     key comparison and block-entry decode — the level-traversal overhead
     the paper blames for LSM scan cost (Â§7.2). *)
  let examined =
    List.fold_left (fun acc src -> acc + List.length src) 0 !sources
  in
  Engine.delay
    (float_of_int examined
    *. ((8.0 *. t.cost.Cost.compare_key) +. (2.0 *. t.cost.Cost.cache_op)));
  (* !sources is now newest-first. *)
  let merged = merge_entries ~drop_tombstones:true !sources in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (k, Some v) :: rest -> (k, v) :: take (n - 1) rest
    | (_, None) :: rest -> take n rest
  in
  take count merged

let rec quiesce t =
  let debt =
    t.immutable_mt <> None
    || Memtable.bytes t.memtable >= t.cfg.memtable_bytes
    || (match t.cfg.l0_mode with
       | Tables -> List.length t.l0 >= t.cfg.l0_compaction_trigger
       | Container { capacity; _ } ->
           Memtable.bytes t.container >= capacity / 2)
    ||
    let rec over n =
      n < max_levels - 1
      && (level_bytes t n > level_limit t n || over (n + 1))
    in
    over 0
  in
  if debt then begin
    Sync.Mailbox.send t.flush_wakeup ();
    Sync.Mailbox.send t.compact_wakeup ();
    Engine.delay 1e-3;
    quiesce t
  end

(* ---- crash and recovery ---- *)

let crash t =
  (* Power failure: DRAM state — both memtables, the block cache, every
     waiter — is gone. The WAL content, L0 tables, the NVM container and
     all levels are durable and survive untouched. As with
     {!Kvell.crash}, the caller must [Engine.clear_pending] first so the
     old background loops and blocked writers are dead; mailboxes and
     locks are replaced because their waiter queues (and a possibly-held
     write-group lock) died with them. *)
  t.memtable <- Memtable.create ~rng:(Rng.split t.rng) ();
  t.immutable_mt <- None;
  Lru.clear t.cache;
  Queue.clear t.rotate_waiters;
  Queue.clear t.stall_waiters;
  t.flush_wakeup <- Sync.Mailbox.create ();
  t.compact_wakeup <- Sync.Mailbox.create ();
  t.cache_lock <- Sync.Mutex.create ();
  t.write_lock <- Sync.Mutex.create ();
  start t

let recover t =
  (* RocksDB-style log replay: oldest record first (frozen segment before
     the live one), re-inserted into a fresh memtable. Replay is
     idempotent against a flush that had already published — the replayed
     records shadow their L0 copies with identical values. Records whose
     memtable insert a crash cut off are replayed too: their writes were
     durable but unacknowledged, which the sweep oracle admits as pending
     outcomes. *)
  let entries = List.rev t.wal_frozen @ List.rev t.wal_live in
  let bytes =
    List.fold_left
      (fun acc (k, v) -> acc + write_record_size k v)
      0 entries
  in
  if bytes > 0 then begin
    Target.read t.wal ~size:bytes;
    Engine.delay (Target.io_overhead t.wal t.cost)
  end;
  List.iter
    (fun (k, v) -> charge_steps t (Memtable.put t.memtable k v))
    entries;
  (* Everything replayed now lives in the active memtable, so the whole
     log is live again (newest first). *)
  t.wal_live <- List.rev entries;
  t.wal_frozen <- []
