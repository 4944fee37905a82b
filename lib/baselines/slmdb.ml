open Prism_sim
open Prism_device

type t = {
  engine : Engine.t;
  cost : Cost.t;
  rng : Rng.t;
  nvm : Model.t;
  data : Target.t;
  memtable_bytes : int;
  compaction_threshold : int;
  mutable memtable : Memtable.t;
  (* Global persistent index: key -> (table id, block). *)
  index : (int * int) Prism_index.Btree.t;
  index_reads : int ref;
  index_writes : int ref;
  tables : (int, Sstable.t) Hashtbl.t;
  cache : (int * int, int) Lru.t;
  compactions : Metric.Counter.t;
}

let create engine ~cost ~rng ~nvm ~data ~memtable_bytes ~page_cache_bytes
    ~compaction_threshold =
  let index_reads = ref 0 and index_writes = ref 0 in
  {
    engine;
    cost;
    rng;
    nvm;
    data;
    memtable_bytes;
    compaction_threshold;
    memtable = Memtable.create ~rng:(Rng.split rng) ();
    index =
      Prism_index.Btree.create
        ~on_access:(fun kind bytes ->
          match kind with
          | `Read -> index_reads := !index_reads + bytes
          | `Write -> index_writes := !index_writes + bytes)
        ();
    index_reads;
    index_writes;
    tables = Hashtbl.create 64;
    cache =
      Lru.create ~capacity:(max 4096 page_cache_bytes) ~weight:(fun b -> b) ();
    compactions = Metric.Counter.create ();
  }
  |> fun t ->
  let reg = Engine.stats engine in
  Stats.register_counter reg "slm-db.compactions" t.compactions;
  Stats.gauge_int reg "slm-db.cache.hits" (fun () -> Lru.hits t.cache);
  Stats.gauge_int reg "slm-db.cache.misses" (fun () -> Lru.misses t.cache);
  Stats.gauge_int reg "slm-db.tables" (fun () -> Hashtbl.length t.tables);
  Stats.gauge_int reg "slm-db.device.ssd.bytes_written" (fun () ->
      Target.bytes_written t.data);
  Stats.gauge_int reg "slm-db.device.nvm.bytes_written" (fun () ->
      Model.bytes_written t.nvm);
  t

let compactions t = Metric.Counter.value t.compactions

(* The B+-tree index lives on NVM and is persistent; bill accumulated node
   traffic after each index operation (same technique as Prism's store). *)
let charge_index t =
  let r = !(t.index_reads) and w = !(t.index_writes) in
  t.index_reads := 0;
  t.index_writes := 0;
  if r > 0 then Model.access t.nvm Model.Read ~size:r;
  if w > 0 then begin
    Model.access t.nvm Model.Write ~size:w;
    Engine.delay
      ((t.cost.Cost.flush_line *. float_of_int (Prism_sim.Bits.ceil_div w 64))
      +. t.cost.Cost.fence)
  end

let record_size key v =
  String.length key + (match v with Some v -> Bytes.length v | None -> 0) + 17

(* Crash-consistent B+-tree insertion on NVM costs a store + clwb + fence
   sequence per node touched; published persistent-index numbers put one
   insert at roughly a microsecond. Every flushed or compacted key pays
   it — the cost the paper blames for SLM-DB's write path (§7.4). *)
let persistent_index_insert_cost = 0.8e-6

let charge_index_inserts _t n =
  if n > 0 then
    Prism_sim.Engine.delay (float_of_int n *. persistent_index_insert_cost)

(* Merge the [k] most-overlapping (here: oldest) tables into fresh ones and
   repoint the index — SLM-DB's selective compaction, run inline. *)
let compact t =
  Metric.Counter.incr t.compactions;
  (* Tables from random-order inserts all overlap the full key space;
     selective compaction ends up merging a large slice of them. *)
  let all = Hashtbl.fold (fun id tab acc -> (id, tab) :: acc) t.tables [] in
  let quota = max 4 (List.length all / 3) in
  let victims =
    all |> List.sort compare |> List.filteri (fun i _ -> i < quota)
  in
  match victims with
  | [] | [ _ ] -> ()
  | victims ->
      let read_bytes =
        List.fold_left (fun acc (_, tab) -> acc + Sstable.bytes tab) 0 victims
      in
      Target.read t.data ~size:read_bytes;
      (* Keep only entries the index still maps into a victim (stale
         versions are dropped — this is where obsolete data dies). *)
      let live =
        List.concat_map
          (fun (id, tab) ->
            Sstable.to_list tab
            |> List.filter (fun (k, _) ->
                   match Prism_index.Btree.find t.index k with
                   | Some (tid, _) -> tid = id
                   | None -> false))
          victims
      in
      charge_index t;
      let live = List.sort (fun (a, _) (b, _) -> String.compare a b) live in
      let live =
        (* Duplicates across victims: keep the one the index points to —
           already guaranteed by the filter, but adjacent equal keys could
           remain if two victims claim it; keep the first. *)
        let rec dedup = function
          | (k1, v1) :: (k2, _) :: rest when String.equal k1 k2 ->
              dedup ((k1, v1) :: rest)
          | e :: rest -> e :: dedup rest
          | [] -> []
        in
        dedup live
      in
      Engine.delay
        (float_of_int (List.length live) *. t.cost.Cost.compare_key);
      (match live with
      | [] -> ()
      | live ->
          let table = Sstable.build live in
          Target.write t.data ~size:(Sstable.bytes table);
          Hashtbl.replace t.tables (Sstable.id table) table;
          Sstable.iter_from table "" (fun ~block k _ ->
              ignore (Prism_index.Btree.insert t.index k (Sstable.id table, block));
              true);
          charge_index t;
          charge_index_inserts t (Sstable.entries table));
      List.iter (fun (id, _) -> Hashtbl.remove t.tables id) victims

(* Inline flush: memtable -> one SSTable + index insertions (§7.4: SLM-DB
   "still requires compaction operations from memtable to SSD that degrade
   its performance"). *)
let flush t =
  let entries = Memtable.to_list t.memtable in
  (match entries with
  | [] -> ()
  | entries ->
      let live = List.filter (fun (_, v) -> v <> None) entries in
      (match live with
      | [] -> ()
      | live ->
          let table = Sstable.build live in
          Target.write t.data ~size:(Sstable.bytes table);
          Engine.delay (Target.io_overhead t.data t.cost);
          Hashtbl.replace t.tables (Sstable.id table) table;
          Sstable.iter_from table "" (fun ~block k _ ->
              ignore
                (Prism_index.Btree.insert t.index k (Sstable.id table, block));
              true);
          charge_index t;
          charge_index_inserts t (Sstable.entries table));
      (* Deletes drop out of the index here. *)
      List.iter
        (fun (k, v) ->
          if v = None then ignore (Prism_index.Btree.delete t.index k))
        entries;
      charge_index t);
  t.memtable <- Memtable.create ~rng:(Rng.split t.rng) ();
  if Hashtbl.length t.tables > t.compaction_threshold then compact t

let put_internal t key v =
  (* Memtable is NVM-resident: pay an NVM write per record, no WAL. *)
  Model.access t.nvm Model.Write ~size:(record_size key v);
  let steps = Memtable.put t.memtable key v in
  Engine.delay (float_of_int steps *. t.cost.Cost.compare_key);
  if Memtable.bytes t.memtable >= t.memtable_bytes then flush t

let put t key v =
  if Bytes.length v = 0 then invalid_arg "Slmdb.put: empty value";
  put_internal t key (Some v)

let remove t key = put_internal t key None

let read_block t tab block =
  let key = (Sstable.id tab, block) in
  match Lru.find t.cache key with
  | Some _ -> Engine.delay t.cost.Cost.cache_op
  | None ->
      let b = Sstable.block_bytes tab ~block in
      Target.read t.data ~size:b;
      Engine.delay (Target.io_overhead t.data t.cost);
      Lru.add t.cache key b

let get t key =
  Model.access t.nvm Model.Read ~size:64;
  match Memtable.find t.memtable key with
  | Some (Some v) -> Some v
  | Some None -> None
  | None -> (
      let found = Prism_index.Btree.find t.index key in
      charge_index t;
      match found with
      | None -> None
      | Some (tid, block) -> (
          match Hashtbl.find_opt t.tables tid with
          | None -> None
          | Some tab -> (
              read_block t tab block;
              match Sstable.find_in_block tab ~block key with
              | Some (Some v) -> Some v
              | Some None | None -> None)))

let remove_existed t key =
  (* Resolve the durable location first (the block read may suspend),
     then decide against the memtable in the suspension-free step that
     inserts the tombstone: a racing writer that lands in between is
     still observed by the re-probe. *)
  Model.access t.nvm Model.Read ~size:64;
  let durable =
    let found = Prism_index.Btree.find t.index key in
    charge_index t;
    match found with
    | None -> false
    | Some (tid, block) -> (
        match Hashtbl.find_opt t.tables tid with
        | None -> false
        | Some tab -> (
            read_block t tab block;
            match Sstable.find_in_block tab ~block key with
            | Some (Some _) -> true
            | Some None | None -> false))
  in
  Model.access t.nvm Model.Write ~size:(record_size key None);
  let existed =
    match Memtable.find t.memtable key with
    | Some (Some _) -> true
    | Some None -> false
    | None -> durable
  in
  let steps = Memtable.put t.memtable key None in
  Engine.delay (float_of_int steps *. t.cost.Cost.compare_key);
  if Memtable.bytes t.memtable >= t.memtable_bytes then flush t;
  existed

let scan t ~from ~count =
  (* Over-fetch: memtable tombstones can shadow indexed entries. *)
  let fetch = (count * 2) + 32 in
  let mem = Memtable.scan t.memtable ~from ~count:fetch in
  let indexed = Prism_index.Btree.scan t.index ~from ~count:fetch in
  charge_index t;
  let from_index =
    List.filter_map
      (fun (k, (tid, block)) ->
        match Hashtbl.find_opt t.tables tid with
        | None -> None
        | Some tab -> (
            read_block t tab block;
            match Sstable.find_in_block tab ~block k with
            | Some (Some v) -> Some (k, Some v)
            | Some None | None -> None))
      indexed
  in
  (* Memtable entries override indexed ones. *)
  let module M = Map.Make (String) in
  let m =
    List.fold_left (fun m (k, v) -> M.add k v m) M.empty from_index
  in
  let m = List.fold_left (fun m (k, v) -> M.add k v m) m mem in
  M.bindings m
  |> List.filter_map (fun (k, v) ->
         match v with Some v -> Some (k, v) | None -> None)
  |> List.filteri (fun i _ -> i < count)

let quiesce _t = ()
