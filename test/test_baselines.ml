(* Tests for the baseline substrate: LRU cache, SSTable, memtable, LSM
   engine (all three configurations), SLM-DB, and KVell. *)

open Prism_sim
open Prism_device
open Prism_baselines
open Helpers

(* ---- Lru ---- *)

let test_lru_basic () =
  let c = Lru.create ~capacity:100 ~weight:(fun v -> v) () in
  Lru.add c "a" 30;
  Lru.add c "b" 30;
  Alcotest.(check (option int)) "find a" (Some 30) (Lru.find c "a");
  Alcotest.(check (option int)) "miss" None (Lru.find c "x");
  Alcotest.(check int) "hits" 1 (Lru.hits c);
  Alcotest.(check int) "misses" 1 (Lru.misses c)

let test_lru_evicts_lru_order () =
  let c = Lru.create ~capacity:100 ~weight:(fun v -> v) () in
  Lru.add c "a" 40;
  Lru.add c "b" 40;
  ignore (Lru.find c "a");
  (* "b" is now least recently used; adding 40 more evicts it. *)
  Lru.add c "c" 40;
  Alcotest.(check bool) "a kept" true (Lru.mem c "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check bool) "c kept" true (Lru.mem c "c")

let test_lru_replace_updates_weight () =
  let c = Lru.create ~capacity:100 ~weight:(fun v -> v) () in
  Lru.add c "a" 90;
  Lru.add c "a" 10;
  Alcotest.(check int) "weight updated" 10 (Lru.used_bytes c);
  Lru.add c "b" 80;
  Alcotest.(check bool) "fits now" true (Lru.mem c "a" && Lru.mem c "b")

let test_lru_remove_and_clear () =
  let c = Lru.create ~capacity:100 ~weight:(fun v -> v) () in
  Lru.add c "a" 10;
  Lru.remove c "a";
  Alcotest.(check bool) "removed" false (Lru.mem c "a");
  Lru.add c "b" 10;
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.entries c);
  Alcotest.(check int) "no bytes" 0 (Lru.used_bytes c)

let prop_lru_capacity_respected =
  qcase "capacity never exceeded"
    QCheck.(small_list (pair (int_bound 20) (int_range 1 50)))
    (fun ops ->
      let c = Lru.create ~capacity:100 ~weight:(fun v -> v) () in
      List.iter (fun (k, w) -> Lru.add c (string_of_int k) w) ops;
      Lru.used_bytes c <= 100)

(* ---- Sstable ---- *)

let entries_of n = List.init n (fun i -> (key i, Some (value ~size:50 i)))

let test_sstable_build_lookup () =
  let t = Sstable.build (entries_of 100) in
  Alcotest.(check int) "entries" 100 (Sstable.entries t);
  Alcotest.(check string) "min" (key 0) (Sstable.min_key t);
  Alcotest.(check string) "max" (key 99) (Sstable.max_key t);
  for i = 0 to 99 do
    match Sstable.locate_block t (key i) with
    | Some block -> (
        match Sstable.find_in_block t ~block (key i) with
        | Some (Some v) ->
            if not (Bytes.equal v (value ~size:50 i)) then
              Alcotest.failf "wrong value at %d" i
        | _ -> Alcotest.failf "missing %d" i)
    | None -> Alcotest.failf "no block for %d" i
  done

let test_sstable_absent_keys () =
  let t = Sstable.build (entries_of 10) in
  Alcotest.(check (option int)) "below range" None
    (Option.map (fun _ -> 0) (Sstable.locate_block t "aaa"));
  (match Sstable.locate_block t (key 5 ^ "x") with
  | Some block ->
      Alcotest.(check bool) "between keys not found" true
        (Sstable.find_in_block t ~block (key 5 ^ "x") = None)
  | None -> Alcotest.fail "block expected")

let test_sstable_blocks_partitioned () =
  let big = List.init 200 (fun i -> (key i, Some (Bytes.make 100 'v'))) in
  let t = Sstable.build big in
  Alcotest.(check bool) "multiple blocks" true (Sstable.block_count t > 3);
  Alcotest.(check bool) "bytes accounted" true (Sstable.bytes t > 200 * 100)

let test_sstable_bloom_filters () =
  let t = Sstable.build (entries_of 100) in
  for i = 0 to 99 do
    if not (Sstable.may_contain t (key i)) then
      Alcotest.failf "bloom false negative %d" i
  done

let test_sstable_tombstones () =
  let t = Sstable.build [ (key 1, Some (value 1)); (key 2, None) ] in
  (match Sstable.locate_block t (key 2) with
  | Some block -> (
      match Sstable.find_in_block t ~block (key 2) with
      | Some None -> ()
      | _ -> Alcotest.fail "tombstone expected")
  | None -> Alcotest.fail "block expected")

let test_sstable_iter_from () =
  let t = Sstable.build (entries_of 50) in
  let seen = ref [] in
  Sstable.iter_from t (key 45) (fun ~block:_ k _ ->
      seen := k :: !seen;
      true);
  Alcotest.(check (list string)) "tail"
    [ key 45; key 46; key 47; key 48; key 49 ]
    (List.rev !seen)

let test_sstable_overlaps () =
  let t = Sstable.build (entries_of 10) in
  Alcotest.(check bool) "inside" true (Sstable.overlaps t ~min:(key 3) ~max:(key 5));
  Alcotest.(check bool) "outside" false
    (Sstable.overlaps t ~min:(key 100) ~max:(key 200));
  Alcotest.(check bool) "touching" true (Sstable.overlaps t ~min:(key 9) ~max:(key 50))

let test_sstable_to_list_roundtrip () =
  let es = entries_of 77 in
  Alcotest.(check int) "roundtrip" (List.length es)
    (List.length (Sstable.to_list (Sstable.build es)));
  Alcotest.(check bool) "equal" true (Sstable.to_list (Sstable.build es) = es)

(* ---- Memtable ---- *)

let test_memtable_put_find_bytes () =
  let mt = Memtable.create ~rng:(Rng.create 1L) () in
  ignore (Memtable.put mt "a" (Some (value 1)));
  ignore (Memtable.put mt "b" None);
  Alcotest.(check bool) "found" true (Memtable.find mt "a" = Some (Some (value 1)));
  Alcotest.(check bool) "tombstone" true (Memtable.find mt "b" = Some None);
  Alcotest.(check bool) "absent" true (Memtable.find mt "c" = None);
  Alcotest.(check bool) "bytes positive" true (Memtable.bytes mt > 0)

let test_memtable_replace_bytes_stable () =
  let mt = Memtable.create ~rng:(Rng.create 1L) () in
  ignore (Memtable.put mt "k" (Some (Bytes.make 100 'a')));
  let b1 = Memtable.bytes mt in
  ignore (Memtable.put mt "k" (Some (Bytes.make 100 'b')));
  Alcotest.(check int) "same size same bytes" b1 (Memtable.bytes mt);
  ignore (Memtable.put mt "k" (Some (Bytes.make 50 'c')));
  Alcotest.(check int) "smaller value" (b1 - 50) (Memtable.bytes mt)

let test_memtable_delete_shrinks () =
  let mt = Memtable.create ~rng:(Rng.create 1L) () in
  ignore (Memtable.put mt "k" (Some (value 1)));
  let b = Memtable.bytes mt in
  Memtable.delete mt "k";
  Alcotest.(check bool) "shrunk" true (Memtable.bytes mt < b);
  Alcotest.(check bool) "gone" true (Memtable.find mt "k" = None)

let test_memtable_iter_while () =
  let mt = Memtable.create ~rng:(Rng.create 1L) () in
  for i = 0 to 9 do
    ignore (Memtable.put mt (key i) (Some (value i)))
  done;
  let seen = ref 0 in
  Memtable.iter_while mt (fun _ _ ->
      incr seen;
      !seen < 4);
  Alcotest.(check int) "stopped early" 4 !seen

(* ---- Lsm_tree ---- *)

let small_scale =
  {
    Variants.memtable_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    table_target_bytes = 16 * 1024;
    block_cache_bytes = 64 * 1024;
    container_bytes = 32 * 1024;
    column_bytes = 8 * 1024;
  }

let with_rocks f =
  let e = Engine.create () in
  let tree =
    Variants.rocksdb_nvm e ~cost:Cost.default ~rng:(Rng.create 3L)
      ~nvm_spec:Spec.optane_dcpmm ~scale:small_scale
  in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e tree));
  ignore (Engine.run e);
  match !result with Some r -> r | None -> Alcotest.fail "did not complete"

let with_matrixkv f =
  let e = Engine.create () in
  let tree, _raid =
    Variants.matrixkv e ~cost:Cost.default ~rng:(Rng.create 3L)
      ~nvm_spec:Spec.optane_dcpmm
      ~ssd_specs:[ Spec.samsung_980_pro ]
      ~scale:small_scale
  in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e tree));
  ignore (Engine.run e);
  match !result with Some r -> r | None -> Alcotest.fail "did not complete"

let lsm_correctness tree n =
  for i = 0 to n - 1 do
    Lsm_tree.put tree (key i) (value ~size:60 i)
  done;
  for i = 0 to n - 1 do
    if i mod 7 = 0 then Lsm_tree.put tree (key i) (value ~size:60 (i + 10_000))
  done;
  for i = 0 to n - 1 do
    if i mod 11 = 0 then Lsm_tree.remove tree (key i)
  done;
  Lsm_tree.quiesce tree;
  let bad = ref 0 in
  for i = 0 to n - 1 do
    let got = Lsm_tree.get tree (key i) in
    let expect =
      if i mod 11 = 0 then None
      else if i mod 7 = 0 then Some (value ~size:60 (i + 10_000))
      else Some (value ~size:60 i)
    in
    (match (got, expect) with
    | Some a, Some b when Bytes.equal a b -> ()
    | None, None -> ()
    | _ -> incr bad);
    ()
  done;
  !bad

let test_rocksdb_correctness_through_compaction () =
  with_rocks (fun _ tree ->
      let bad = lsm_correctness tree 2000 in
      Alcotest.(check int) "no wrong reads" 0 bad;
      Alcotest.(check bool) "compactions happened" true
        (Lsm_tree.compactions tree > 0))

let test_matrixkv_correctness_through_compaction () =
  with_matrixkv (fun _ tree ->
      let bad = lsm_correctness tree 2000 in
      Alcotest.(check int) "no wrong reads" 0 bad;
      Alcotest.(check bool) "column compactions happened" true
        (Lsm_tree.compactions tree > 0))

let test_lsm_scan_merges_levels () =
  with_rocks (fun _ tree ->
      for i = 0 to 999 do
        Lsm_tree.put tree (key i) (value ~size:60 i)
      done;
      (* Update a few so memtable shadows deeper levels. *)
      for i = 100 to 104 do
        Lsm_tree.put tree (key i) (Bytes.of_string "new")
      done;
      let rs = Lsm_tree.scan tree ~from:(key 98) ~count:10 in
      Alcotest.(check int) "count" 10 (List.length rs);
      Alcotest.(check string) "starts right" (key 98) (fst (List.hd rs));
      Alcotest.(check string) "shadowed value" "new"
        (Bytes.to_string (List.assoc (key 100) rs)))

let test_lsm_scan_hides_tombstones () =
  with_rocks (fun _ tree ->
      for i = 0 to 99 do
        Lsm_tree.put tree (key i) (value i)
      done;
      Lsm_tree.remove tree (key 50);
      let rs = Lsm_tree.scan tree ~from:(key 49) ~count:3 in
      Alcotest.(check (list string)) "tombstone hidden"
        [ key 49; key 51; key 52 ]
        (List.map fst rs))

let test_lsm_write_stalls_counted () =
  with_rocks (fun e tree ->
      (* Hammer writes with tiny memtable: flushes outpace compaction. *)
      for i = 0 to 4999 do
        Lsm_tree.put tree (key (i mod 500)) (value ~size:100 i)
      done;
      let stalls =
        Stats.get_int (Engine.stats e)
          (Stats.sanitize (Lsm_tree.name tree) ^ ".stalls")
      in
      Alcotest.(check bool) "stalls observed" true (stalls >= 0))

let test_lsm_level_bytes_accounted () =
  with_rocks (fun _ tree ->
      for i = 0 to 1999 do
        Lsm_tree.put tree (key i) (value ~size:100 i)
      done;
      Lsm_tree.quiesce tree;
      Alcotest.(check bool) "level writes happened" true
        (Lsm_tree.level_bytes_written tree > 0))

(* [remove_existed] probes the durable levels before it takes the write
   lock, so writers never queue behind its IO. A put acknowledged before
   the delete starts, whose memtable flush publishes while that probe is
   suspended, must still count: the put is no longer in a memtable and
   the probe read the tables from before the flush. The delete's start
   is swept across the flush so the publish lands inside the probe. *)
let test_lsm_remove_sees_flush_during_probe () =
  for step = 0 to 100 do
    with_rocks (fun _ tree ->
        (* A durable tombstone: the probe reads its block (suspending on
           IO) and, if stale, answers "absent". *)
        Lsm_tree.remove tree (key 0);
        for i = 1 to 120 do
          Lsm_tree.put tree (key i) (value ~size:100 i)
        done;
        Lsm_tree.quiesce tree;
        (* A memtable-sized value: the put rotates the memtable and
           returns; its flush runs in the background. *)
        Lsm_tree.put tree (key 0) (value ~size:8192 1);
        Engine.delay (float_of_int step *. 1e-7);
        Alcotest.(check bool)
          (Printf.sprintf "delete %d ns after the put" (100 * step))
          true
          (Lsm_tree.remove_existed tree (key 0)))
  done

(* The delete contract the harness Kv layer now relies on: removal
   reports whether the key existed, wherever its logical value lives —
   memtable, flushed tables, or shadowed under a tombstone. *)
let test_lsm_remove_existed () =
  with_rocks (fun _ tree ->
      Alcotest.(check bool) "absent key" false
        (Lsm_tree.remove_existed tree "nope");
      Lsm_tree.put tree "fresh" (value 1);
      Alcotest.(check bool) "memtable-resident key" true
        (Lsm_tree.remove_existed tree "fresh");
      Alcotest.(check bool) "tombstoned key reads absent" false
        (Lsm_tree.remove_existed tree "fresh");
      (* Push a key out of the memtable so existence must be decided
         against the durable levels. *)
      Lsm_tree.put tree "durable" (value 2);
      for i = 0 to 999 do
        Lsm_tree.put tree (key i) (value ~size:100 i)
      done;
      Lsm_tree.quiesce tree;
      Alcotest.(check bool) "flushed key still reads present" true
        (Lsm_tree.remove_existed tree "durable");
      Alcotest.(check bool) "and absent after its tombstone" false
        (Lsm_tree.remove_existed tree "durable");
      (* The harness view must agree with the engine verdict. *)
      let kv = Prism_harness.Kv.of_lsm tree in
      Lsm_tree.put tree "via-kv" (value 3);
      Alcotest.(check bool) "Kv.delete reports prior existence" true
        (kv.Prism_harness.Kv.delete ~tid:0 "via-kv");
      Alcotest.(check bool) "Kv.delete reports prior absence" false
        (kv.Prism_harness.Kv.delete ~tid:0 "via-kv"))

(* ---- Slmdb ---- *)

let with_slmdb f =
  let e = Engine.create () in
  let nvm = Model.create e Spec.optane_dcpmm in
  let raid = Raid.create [ Model.create e Spec.samsung_980_pro ] in
  let db =
    Slmdb.create e ~cost:Cost.default ~rng:(Rng.create 4L) ~nvm
      ~data:(Target.ssd_raid raid) ~memtable_bytes:(8 * 1024)
      ~page_cache_bytes:(128 * 1024) ~compaction_threshold:6
  in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e db));
  ignore (Engine.run e);
  match !result with Some r -> r | None -> Alcotest.fail "did not complete"

let test_slmdb_basic () =
  with_slmdb (fun _ db ->
      Slmdb.put db "a" (Bytes.of_string "1");
      Slmdb.put db "b" (Bytes.of_string "2");
      Alcotest.(check (option string)) "get" (Some "1")
        (Option.map Bytes.to_string (Slmdb.get db "a"));
      Slmdb.remove db "a";
      Alcotest.(check (option string)) "removed" None
        (Option.map Bytes.to_string (Slmdb.get db "a")))

let test_slmdb_remove_existed () =
  with_slmdb (fun _ db ->
      Alcotest.(check bool) "absent key" false
        (Slmdb.remove_existed db "nope");
      Slmdb.put db "fresh" (Bytes.of_string "v");
      Alcotest.(check bool) "memtable-resident key" true
        (Slmdb.remove_existed db "fresh");
      Alcotest.(check bool) "tombstoned key reads absent" false
        (Slmdb.remove_existed db "fresh");
      Slmdb.put db "durable" (Bytes.of_string "w");
      for i = 0 to 499 do
        Slmdb.put db (key i) (value ~size:60 i)
      done;
      Alcotest.(check bool) "flushed key still reads present" true
        (Slmdb.remove_existed db "durable");
      Alcotest.(check bool) "and absent after its tombstone" false
        (Slmdb.remove_existed db "durable");
      let kv = Prism_harness.Kv.of_slmdb db in
      Slmdb.put db "via-kv" (Bytes.of_string "x");
      Alcotest.(check bool) "Kv.delete reports prior existence" true
        (kv.Prism_harness.Kv.delete ~tid:0 "via-kv");
      Alcotest.(check bool) "Kv.delete reports prior absence" false
        (kv.Prism_harness.Kv.delete ~tid:0 "via-kv"))

let test_slmdb_through_flush_and_compaction () =
  with_slmdb (fun _ db ->
      let n = 1500 in
      for i = 0 to n - 1 do
        Slmdb.put db (key i) (value ~size:60 i)
      done;
      for i = 0 to n - 1 do
        if i mod 5 = 0 then Slmdb.put db (key i) (value ~size:60 (i + 5000))
      done;
      Alcotest.(check bool) "compactions ran" true (Slmdb.compactions db > 0);
      let bad = ref 0 in
      for i = 0 to n - 1 do
        let expect =
          if i mod 5 = 0 then value ~size:60 (i + 5000) else value ~size:60 i
        in
        match Slmdb.get db (key i) with
        | Some v when Bytes.equal v expect -> ()
        | _ -> incr bad
      done;
      Alcotest.(check int) "consistent after compaction" 0 !bad)

let test_slmdb_scan () =
  with_slmdb (fun _ db ->
      for i = 0 to 499 do
        Slmdb.put db (key i) (value ~size:60 i)
      done;
      let rs = Slmdb.scan db ~from:(key 100) ~count:5 in
      Alcotest.(check (list string)) "range"
        [ key 100; key 101; key 102; key 103; key 104 ]
        (List.map fst rs))

(* ---- Kvell ---- *)

let with_kvell ?(workers_per_ssd = 2) f =
  let e = Engine.create () in
  let kv =
    Kvell.create e ~cost:Cost.default ~rng:(Rng.create 5L)
      ~ssd_specs:[ Spec.samsung_980_pro; Spec.samsung_980_pro ]
      ~workers_per_ssd ~queue_depth:16 ~page_cache_bytes:(256 * 1024)
  in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e kv));
  ignore (Engine.run e);
  match !result with Some r -> r | None -> Alcotest.fail "did not complete"

let test_kvell_basic () =
  with_kvell (fun _ kv ->
      Kvell.put kv "a" (Bytes.of_string "1");
      Alcotest.(check (option string)) "get" (Some "1")
        (Option.map Bytes.to_string (Kvell.get kv "a"));
      Alcotest.(check bool) "delete" true (Kvell.delete kv "a");
      Alcotest.(check (option string)) "gone" None
        (Option.map Bytes.to_string (Kvell.get kv "a"));
      Alcotest.(check bool) "delete again" false (Kvell.delete kv "a"))

let test_kvell_many_keys_partitioned () =
  with_kvell (fun _ kv ->
      Alcotest.(check int) "worker count" 4 (Kvell.workers kv);
      let n = 2000 in
      for i = 0 to n - 1 do
        Kvell.put kv (key i) (value ~size:100 i)
      done;
      let bad = ref 0 in
      for i = 0 to n - 1 do
        match Kvell.get kv (key i) with
        | Some v when Bytes.equal v (value ~size:100 i) -> ()
        | _ -> incr bad
      done;
      Alcotest.(check int) "all correct" 0 !bad;
      Alcotest.(check bool) "page writes happened" true
        (Kvell.ssd_bytes_written kv > 0))

let test_kvell_update_in_place () =
  with_kvell (fun _ kv ->
      Kvell.put kv "k" (Bytes.of_string "v1");
      Kvell.put kv "k" (Bytes.of_string "v2");
      Alcotest.(check (option string)) "updated" (Some "v2")
        (Option.map Bytes.to_string (Kvell.get kv "k")))

let test_kvell_scan_across_workers () =
  with_kvell (fun _ kv ->
      for i = 0 to 299 do
        Kvell.put kv (key i) (value ~size:100 i)
      done;
      let rs = Kvell.scan kv ~from:(key 50) ~count:10 in
      Alcotest.(check int) "count" 10 (List.length rs);
      List.iteri
        (fun j (k, _) -> Alcotest.(check string) "ordered" (key (50 + j)) k)
        rs)

let test_kvell_put_async_read_your_writes () =
  with_kvell (fun _ kv ->
      let iv = Kvell.put_async kv "k" (Bytes.of_string "async") in
      (* Same-key read goes to the same worker queue, so FIFO order makes
         the read see the write even without waiting on the ivar. *)
      Alcotest.(check (option string)) "read-your-write" (Some "async")
        (Option.map Bytes.to_string (Kvell.get kv "k"));
      Sync.Ivar.read iv)

let test_kvell_concurrent_clients () =
  let e = Engine.create () in
  let kv =
    Kvell.create e ~cost:Cost.default ~rng:(Rng.create 5L)
      ~ssd_specs:[ Spec.samsung_980_pro ]
      ~workers_per_ssd:3 ~queue_depth:16 ~page_cache_bytes:(256 * 1024)
  in
  let n = 600 in
  let latch = Sync.Latch.create 4 in
  for c = 0 to 3 do
    Engine.spawn e (fun () ->
        for i = 0 to n - 1 do
          if i mod 4 = c then Kvell.put kv (key i) (value ~size:100 i)
        done;
        Sync.Latch.arrive latch)
  done;
  let bad = ref (-1) in
  Engine.spawn e (fun () ->
      Sync.Latch.wait latch;
      bad := 0;
      for i = 0 to n - 1 do
        match Kvell.get kv (key i) with
        | Some v when Bytes.equal v (value ~size:100 i) -> ()
        | _ -> incr bad
      done);
  ignore (Engine.run e);
  Alcotest.(check int) "all correct" 0 !bad

let test_kvell_recover_charges_time () =
  with_kvell (fun e kv ->
      for i = 0 to 999 do
        Kvell.put kv (key i) (value ~size:100 i)
      done;
      let t0 = Engine.now e in
      Kvell.recover kv;
      Alcotest.(check bool) "recovery takes time (full scan)" true
        (Engine.now e -. t0 > 1e-5))

(* ---- model-based properties ---- *)

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 0 250)
      (frequency
         [
           (5, map2 (fun k v -> `Put (k, v)) (int_bound 80) (int_bound 10_000));
           (3, map (fun k -> `Get k) (int_bound 80));
           (1, map (fun k -> `Remove k) (int_bound 80));
           (1, map2 (fun k n -> `Scan (k, 1 + (n mod 6))) (int_bound 80) (int_bound 6));
         ]))

let check_against_map ~put ~get ~remove ~scan ops =
  let module M = Map.Make (String) in
  let model = ref M.empty in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | `Put (k, v) ->
          let k = key k in
          let data = value ~size:48 v in
          put k data;
          model := M.add k data !model
      | `Get k ->
          let k = key k in
          let got = get k in
          let expect = M.find_opt k !model in
          (match (got, expect) with
          | Some a, Some b when Bytes.equal a b -> ()
          | None, None -> ()
          | _ -> ok := false)
      | `Remove k ->
          let k = key k in
          remove k;
          model := M.remove k !model
      | `Scan (k, n) ->
          let k = key k in
          let got = scan k n in
          let expect =
            M.bindings !model
            |> List.filter (fun (k', _) -> String.compare k' k >= 0)
            |> List.filteri (fun i _ -> i < n)
          in
          if List.map fst got <> List.map fst expect then ok := false)
    ops;
  !ok

let prop_lsm_vs_map =
  qcase ~count:30 "rocksdb-nvm engine behaves like Map" (QCheck.make ops_gen)
    (fun ops ->
      with_rocks (fun _ tree ->
          check_against_map
            ~put:(fun k v -> Lsm_tree.put tree k v)
            ~get:(fun k -> Lsm_tree.get tree k)
            ~remove:(fun k -> Lsm_tree.remove tree k)
            ~scan:(fun k n -> Lsm_tree.scan tree ~from:k ~count:n)
            ops))

let prop_matrixkv_vs_map =
  qcase ~count:30 "matrixkv engine behaves like Map" (QCheck.make ops_gen)
    (fun ops ->
      with_matrixkv (fun _ tree ->
          check_against_map
            ~put:(fun k v -> Lsm_tree.put tree k v)
            ~get:(fun k -> Lsm_tree.get tree k)
            ~remove:(fun k -> Lsm_tree.remove tree k)
            ~scan:(fun k n -> Lsm_tree.scan tree ~from:k ~count:n)
            ops))

let prop_kvell_vs_map =
  qcase ~count:30 "kvell behaves like Map" (QCheck.make ops_gen) (fun ops ->
      with_kvell (fun _ kv ->
          check_against_map
            ~put:(fun k v -> Kvell.put kv k v)
            ~get:(fun k -> Kvell.get kv k)
            ~remove:(fun k -> ignore (Kvell.delete kv k))
            ~scan:(fun k n -> Kvell.scan kv ~from:k ~count:n)
            ops))

let prop_slmdb_vs_map =
  qcase ~count:30 "slm-db behaves like Map" (QCheck.make ops_gen) (fun ops ->
      with_slmdb (fun _ db ->
          check_against_map
            ~put:(fun k v -> Slmdb.put db k v)
            ~get:(fun k -> Slmdb.get db k)
            ~remove:(fun k -> Slmdb.remove db k)
            ~scan:(fun k n -> Slmdb.scan db ~from:k ~count:n)
            ops))

let () =
  Alcotest.run "baselines"
    [
      ( "lru",
        [
          case "basic" test_lru_basic;
          case "lru order" test_lru_evicts_lru_order;
          case "replace weight" test_lru_replace_updates_weight;
          case "remove/clear" test_lru_remove_and_clear;
          prop_lru_capacity_respected;
        ] );
      ( "sstable",
        [
          case "build/lookup" test_sstable_build_lookup;
          case "absent keys" test_sstable_absent_keys;
          case "blocks" test_sstable_blocks_partitioned;
          case "bloom" test_sstable_bloom_filters;
          case "tombstones" test_sstable_tombstones;
          case "iter_from" test_sstable_iter_from;
          case "overlaps" test_sstable_overlaps;
          case "to_list" test_sstable_to_list_roundtrip;
        ] );
      ( "memtable",
        [
          case "put/find/bytes" test_memtable_put_find_bytes;
          case "replace bytes" test_memtable_replace_bytes_stable;
          case "delete" test_memtable_delete_shrinks;
          case "iter_while" test_memtable_iter_while;
        ] );
      ( "lsm",
        [
          case "rocksdb-nvm correctness" test_rocksdb_correctness_through_compaction;
          case "matrixkv correctness" test_matrixkv_correctness_through_compaction;
          case "scan merges levels" test_lsm_scan_merges_levels;
          case "scan hides tombstones" test_lsm_scan_hides_tombstones;
          case "stalls counted" test_lsm_write_stalls_counted;
          case "level bytes" test_lsm_level_bytes_accounted;
          case "remove reports existence" test_lsm_remove_existed;
          case "remove sees a flush during its probe"
            test_lsm_remove_sees_flush_during_probe;
        ] );
      ( "slmdb",
        [
          case "basic" test_slmdb_basic;
          case "remove reports existence" test_slmdb_remove_existed;
          case "flush+compaction" test_slmdb_through_flush_and_compaction;
          case "scan" test_slmdb_scan;
        ] );
      ( "kvell",
        [
          case "basic" test_kvell_basic;
          case "partitioned" test_kvell_many_keys_partitioned;
          case "update in place" test_kvell_update_in_place;
          case "scan across workers" test_kvell_scan_across_workers;
          case "async read-your-writes" test_kvell_put_async_read_your_writes;
          case "concurrent clients" test_kvell_concurrent_clients;
          case "recover" test_kvell_recover_charges_time;
        ] );
      ( "model-properties",
        [
          prop_lsm_vs_map;
          prop_matrixkv_vs_map;
          prop_kvell_vs_map;
          prop_slmdb_vs_map;
        ] );
    ]
