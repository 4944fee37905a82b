(* Integration tests for the Prism store: end-to-end operations,
   concurrency, the SVC cache behaviour, crash consistency and recovery,
   ablation configurations, and model-based property tests. *)

open Prism_sim
open Prism_core
open Helpers

let small_config =
  {
    Config.default with
    threads = 4;
    pwb_size = 64 * 1024;
    svc_capacity = 256 * 1024;
    num_value_storages = 2;
    vs_size = 4 * 1024 * 1024;
    chunk_size = 32 * 1024;
    hsit_capacity = 1 lsl 14;
    nvm_size = 8 * 1024 * 1024;
  }

let with_store ?(cfg = small_config) f =
  let e = Engine.create () in
  let store = Store.create e cfg in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e store));
  ignore (Engine.run e);
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "store test did not complete"

(* ---- basic operations ---- *)

let test_put_get () =
  with_store (fun _ store ->
      Store.put store ~tid:0 "alpha" (Bytes.of_string "one");
      Store.put store ~tid:0 "beta" (Bytes.of_string "two");
      Alcotest.(check (option string)) "alpha" (Some "one")
        (Option.map Bytes.to_string (Store.get store ~tid:1 "alpha"));
      Alcotest.(check (option string)) "beta" (Some "two")
        (Option.map Bytes.to_string (Store.get store ~tid:1 "beta"));
      Alcotest.(check (option string)) "missing" None
        (Option.map Bytes.to_string (Store.get store ~tid:1 "gamma"));
      Alcotest.(check int) "length" 2 (Store.length store))

let test_update_overwrites () =
  with_store (fun _ store ->
      Store.put store ~tid:0 "k" (Bytes.of_string "v1");
      Store.put store ~tid:0 "k" (Bytes.of_string "v2");
      Store.put store ~tid:1 "k" (Bytes.of_string "v3");
      Alcotest.(check (option string)) "latest wins" (Some "v3")
        (Option.map Bytes.to_string (Store.get store ~tid:2 "k"));
      Alcotest.(check int) "one key" 1 (Store.length store))

let test_delete () =
  with_store (fun _ store ->
      Store.put store ~tid:0 "k" (Bytes.of_string "v");
      Alcotest.(check bool) "deleted" true (Store.delete store ~tid:0 "k");
      Alcotest.(check (option string)) "gone" None
        (Option.map Bytes.to_string (Store.get store ~tid:0 "k"));
      Alcotest.(check bool) "again" false (Store.delete store ~tid:0 "k");
      Alcotest.(check int) "empty" 0 (Store.length store))

let test_delete_then_reinsert () =
  with_store (fun _ store ->
      Store.put store ~tid:0 "k" (Bytes.of_string "v1");
      ignore (Store.delete store ~tid:0 "k");
      Store.put store ~tid:0 "k" (Bytes.of_string "v2");
      Alcotest.(check (option string)) "reinserted" (Some "v2")
        (Option.map Bytes.to_string (Store.get store ~tid:0 "k")))

let test_empty_value_rejected () =
  with_store (fun _ store ->
      try
        Store.put store ~tid:0 "k" Bytes.empty;
        Alcotest.fail "expected rejection"
      with Invalid_argument _ -> ())

let test_scan_basic () =
  with_store (fun _ store ->
      for i = 0 to 49 do
        Store.put store ~tid:0 (key i) (value i)
      done;
      let rs = Store.scan store ~tid:1 (key 10) 5 in
      Alcotest.(check (list string)) "keys"
        [ key 10; key 11; key 12; key 13; key 14 ]
        (List.map fst rs);
      List.iteri
        (fun j (_, v) -> Alcotest.check bytes_eq "value" (value (10 + j)) v)
        rs)

let test_scan_skips_deleted () =
  with_store (fun _ store ->
      for i = 0 to 9 do
        Store.put store ~tid:0 (key i) (value i)
      done;
      ignore (Store.delete store ~tid:0 (key 2));
      let rs = Store.scan store ~tid:0 (key 0) 5 in
      Alcotest.(check bool) "deleted key absent" true
        (not (List.mem_assoc (key 2) rs)))

(* ---- volume: force reclamation to Value Storage ---- *)

let test_data_survives_reclamation () =
  with_store (fun _ store ->
      let n = 2000 in
      for i = 0 to n - 1 do
        Store.put store ~tid:(i mod 4) (key i) (value ~size:128 i)
      done;
      Store.quiesce store;
      Alcotest.(check bool) "values migrated to SSD" true
        (Store.ssd_bytes_written store > 0);
      let bad = ref 0 in
      for i = 0 to n - 1 do
        match Store.get store ~tid:0 (key i) with
        | Some v when Bytes.equal v (value ~size:128 i) -> ()
        | _ -> incr bad
      done;
      Alcotest.(check int) "no lost or wrong values" 0 !bad)

let test_updates_deduplicated_by_reclaimer () =
  (* Writing the same key many times must not migrate every version:
     reclamation only writes well-coupled (latest) versions (§4.3). *)
  with_store (fun _ store ->
      for round = 0 to 19 do
        for i = 0 to 199 do
          Store.put store ~tid:0 (key i) (value ~size:128 (i + round))
        done
      done;
      Store.quiesce store;
      let migrated, superseded = Store.reclaim_stats store in
      (* 20 versions per key: the overwhelming majority must be skipped as
         dead rather than written to the SSD (Â§4.3). *)
      Alcotest.(check bool) "most versions skipped" true
        (superseded > 3 * migrated);
      Alcotest.(check bool) "something migrated" true (migrated > 0))

let test_stats_accumulate () =
  with_store (fun _ store ->
      for i = 0 to 99 do
        Store.put store ~tid:0 (key i) (value i)
      done;
      for i = 0 to 99 do
        ignore (Store.get store ~tid:1 (key i))
      done;
      ignore (Store.scan store ~tid:2 (key 0) 10);
      let st = Store.stats store in
      Alcotest.(check int) "puts" 100 st.puts;
      Alcotest.(check int) "gets" 100 st.gets;
      Alcotest.(check int) "scans" 1 st.scans;
      Alcotest.(check bool) "reads resolved somewhere" true
        (st.svc_hits + st.pwb_hits + st.vs_reads >= 100))

let test_nvm_footprint_reported () =
  with_store (fun _ store ->
      for i = 0 to 499 do
        Store.put store ~tid:0 (key i) (value i)
      done;
      Alcotest.(check bool) "index+HSIT bytes positive" true
        (Store.nvm_index_bytes store > 8192))

(* ---- concurrency ---- *)

let test_concurrent_writers_distinct_keys () =
  let e = Engine.create () in
  let store = Store.create e small_config in
  let n = 1200 in
  let latch = Sync.Latch.create 4 in
  for tid = 0 to 3 do
    Engine.spawn e (fun () ->
        for i = 0 to n - 1 do
          if i mod 4 = tid then
            Store.put store ~tid (key i) (value ~size:100 i)
        done;
        Sync.Latch.arrive latch)
  done;
  let bad = ref (-1) in
  Engine.spawn e (fun () ->
      Sync.Latch.wait latch;
      Store.quiesce store;
      bad := 0;
      for i = 0 to n - 1 do
        match Store.get store ~tid:0 (key i) with
        | Some v when Bytes.equal v (value ~size:100 i) -> ()
        | _ -> incr bad
      done);
  ignore (Engine.run e);
  Alcotest.(check int) "all correct" 0 !bad

let test_concurrent_update_same_key_converges () =
  let e = Engine.create () in
  let store = Store.create e small_config in
  let latch = Sync.Latch.create 4 in
  for tid = 0 to 3 do
    Engine.spawn e (fun () ->
        for v = 0 to 99 do
          Store.put store ~tid "contended"
            (Bytes.of_string (Printf.sprintf "t%d-v%d" tid v))
        done;
        Sync.Latch.arrive latch)
  done;
  let final = ref None in
  Engine.spawn e (fun () ->
      Sync.Latch.wait latch;
      final := Store.get store ~tid:0 "contended");
  ignore (Engine.run e);
  (match !final with
  | Some v ->
      let s = Bytes.to_string v in
      Alcotest.(check bool) "one of the written values" true
        (String.length s > 3 && s.[0] = 't')
  | None -> Alcotest.fail "key lost");
  Alcotest.(check int) "single binding" 1 (Store.length store)

let test_readers_during_writes_see_valid_values () =
  let e = Engine.create () in
  let store = Store.create e { small_config with threads = 5 } in
  let writers_done = Sync.Latch.create 4 in
  let n = 800 in
  for tid = 0 to 3 do
    Engine.spawn e (fun () ->
        for round = 0 to 3 do
          for i = 0 to n - 1 do
            if i mod 4 = tid then
              Store.put store ~tid (key i) (value ~size:100 (i + (round * n)))
          done
        done;
        Sync.Latch.arrive writers_done)
  done;
  let anomalies = ref 0 in
  Engine.spawn e (fun () ->
      for i = 0 to 4999 do
        let k = key (i mod n) in
        match Store.get store ~tid:4 k with
        | Some v ->
            (* Any read value must be one of the versions ever written. *)
            let s = Bytes.to_string v in
            if not (String.length s > 6 && s.[0] = 'v') then incr anomalies
        | None -> () (* not yet inserted *)
      done);
  Engine.spawn e (fun () -> Sync.Latch.wait writers_done);
  ignore (Engine.run e);
  Alcotest.(check int) "no torn or garbage reads" 0 !anomalies

(* ---- SVC behaviour through the store ---- *)

let test_svc_caches_hot_reads () =
  with_store (fun _ store ->
      for i = 0 to 999 do
        Store.put store ~tid:0 (key i) (value ~size:200 i)
      done;
      Store.quiesce store;
      (* First read brings values from VS; repeated reads should hit. *)
      for _ = 1 to 3 do
        for i = 0 to 49 do
          ignore (Store.get store ~tid:1 (key i))
        done
      done;
      let st = Store.stats store in
      Alcotest.(check bool) "cache hits happened" true (st.svc_hits > 50))

let test_svc_disabled_config () =
  with_store ~cfg:{ small_config with use_svc = false } (fun _ store ->
      for i = 0 to 499 do
        Store.put store ~tid:0 (key i) (value ~size:200 i)
      done;
      Store.quiesce store;
      for _ = 1 to 2 do
        for i = 0 to 49 do
          ignore (Store.get store ~tid:1 (key i))
        done
      done;
      let st = Store.stats store in
      Alcotest.(check int) "no cache hits" 0 st.svc_hits;
      Alcotest.(check bool) "reads served" true (st.pwb_hits + st.vs_reads > 0))

let test_svc_invalidated_on_update () =
  with_store (fun _ store ->
      for i = 0 to 499 do
        Store.put store ~tid:0 (key i) (value ~size:200 i)
      done;
      Store.quiesce store;
      (* Cache key 7, then update it; read must return the new value. *)
      ignore (Store.get store ~tid:1 (key 7));
      ignore (Store.get store ~tid:1 (key 7));
      Store.put store ~tid:0 (key 7) (Bytes.of_string "fresh");
      Alcotest.(check (option string)) "no stale cache" (Some "fresh")
        (Option.map Bytes.to_string (Store.get store ~tid:1 (key 7))))

let test_svc_eviction_under_pressure () =
  with_store
    ~cfg:{ small_config with svc_capacity = 16 * 1024 }
    (fun _ store ->
      for i = 0 to 799 do
        Store.put store ~tid:0 (key i) (value ~size:200 i)
      done;
      Store.quiesce store;
      for i = 0 to 799 do
        ignore (Store.get store ~tid:1 (key i))
      done;
      match Store.svc store with
      | Some svc ->
          Alcotest.(check bool) "evictions happened" true (Svc.evictions svc > 0);
          Alcotest.(check bool) "capacity respected (2x slack)" true
            (Svc.used_bytes svc <= 2 * 16 * 1024)
      | None -> Alcotest.fail "svc expected")

let test_scan_reorganization_runs () =
  with_store
    ~cfg:{ small_config with svc_capacity = 32 * 1024 }
    (fun _ store ->
      for i = 0 to 999 do
        Store.put store ~tid:0 (key i) (value ~size:150 i)
      done;
      Store.quiesce store;
      (* Repeated scans of ranges create chains; cache pressure evicts and
         triggers sort-on-evict write-back. *)
      for round = 0 to 19 do
        ignore (Store.scan store ~tid:1 (key ((round * 37) mod 900)) 30)
      done;
      match Store.svc store with
      | Some svc ->
          Alcotest.(check bool) "reorganizations happened" true
            (Svc.reorganizations svc > 0)
      | None -> Alcotest.fail "svc expected")

(* A Value Storage a few times the live data keeps GC busy under update
   churn. After every operation that follows a new GC pass, each chunk's
   live-byte count (GC's victim key) must match a walk of its slots, and
   every value must still read back. *)
let test_vs_gc_under_pressure () =
  with_store
    ~cfg:
      {
        small_config with
        vs_size = 192 * 1024;
        pwb_size = 16 * 1024;
      }
    (fun _ store ->
      let n = 300 in
      let seen = ref 0 in
      let check () =
        if Store.gc_runs store > !seen then begin
          seen := Store.gc_runs store;
          Array.iter Value_storage.check_live (Store.value_storages store)
        end
      in
      for round = 0 to 9 do
        for i = 0 to n - 1 do
          Store.put store ~tid:(i mod 4) (key i) (value ~size:128 (i + round));
          check ()
        done
      done;
      Store.quiesce store;
      check ();
      Alcotest.(check bool) "gc ran" true (Store.gc_runs store > 0);
      let bad = ref 0 in
      for i = 0 to n - 1 do
        match Store.get store ~tid:0 (key i) with
        | Some v when Bytes.equal v (value ~size:128 (i + 9)) -> ()
        | _ -> incr bad
      done;
      Alcotest.(check int) "no lost or stale values" 0 !bad)

(* ---- crash consistency & recovery ---- *)

let crash_and_recover e store =
  Engine.clear_pending e;
  Store.crash store;
  let recovered = ref (-1) in
  Engine.spawn e (fun () -> recovered := Store.recover store);
  ignore (Engine.run e);
  !recovered

let test_recovery_after_clean_load () =
  let e = Engine.create () in
  let store = Store.create e small_config in
  let n = 1500 in
  Engine.spawn e (fun () ->
      for i = 0 to n - 1 do
        Store.put store ~tid:(i mod 4) (key i) (value ~size:120 i)
      done;
      Store.quiesce store);
  ignore (Engine.run e);
  let recovered = crash_and_recover e store in
  Alcotest.(check int) "all keys recovered" n recovered;
  let bad = ref (-1) in
  Engine.spawn e (fun () ->
      bad := 0;
      for i = 0 to n - 1 do
        match Store.get store ~tid:0 (key i) with
        | Some v when Bytes.equal v (value ~size:120 i) -> ()
        | _ -> incr bad
      done);
  ignore (Engine.run e);
  Alcotest.(check int) "values intact" 0 !bad

let test_recovery_mid_flight () =
  (* Crash while writes are in flight: every key either has a fully
     consistent value (some written version) or is absent; no torn data. *)
  let e = Engine.create () in
  let store = Store.create e small_config in
  let n = 1000 in
  for tid = 0 to 3 do
    Engine.spawn e (fun () ->
        for round = 0 to 4 do
          for i = 0 to n - 1 do
            if i mod 4 = tid then
              Store.put store ~tid (key i) (value ~size:120 (i + (round * n)))
          done
        done)
  done;
  (* Stop mid-stream. *)
  ignore (Engine.run ~until:0.002 e);
  let recovered = crash_and_recover e store in
  Alcotest.(check bool) "recovered something" true (recovered > 0);
  let bad = ref (-1) in
  Engine.spawn e (fun () ->
      bad := 0;
      for i = 0 to n - 1 do
        match Store.get store ~tid:0 (key i) with
        | Some v ->
            (* Value must be one of the versions written for this key. *)
            let s = Bytes.to_string v in
            let prefix_ok = String.length s > 6 && s.[0] = 'v' in
            let version_ok =
              match String.index_opt s '-' with
              | Some d1 -> (
                  match String.index_from_opt s (d1 + 1) '-' with
                  | Some d2 -> (
                      match
                        int_of_string_opt (String.sub s (d1 + 1) (d2 - d1 - 1))
                      with
                      | Some v -> v mod n = i
                      | None -> false)
                  | None -> false)
              | None -> false
            in
            if not (prefix_ok && version_ok) then incr bad
        | None -> ()
      done);
  ignore (Engine.run e);
  Alcotest.(check int) "no torn values" 0 !bad

let test_recovery_preserves_updates () =
  let e = Engine.create () in
  let store = Store.create e small_config in
  Engine.spawn e (fun () ->
      for i = 0 to 499 do
        Store.put store ~tid:0 (key i) (value ~size:100 i)
      done;
      for i = 0 to 499 do
        if i mod 3 = 0 then
          Store.put store ~tid:1 (key i) (value ~size:100 (i + 10000))
      done;
      Store.quiesce store);
  ignore (Engine.run e);
  ignore (crash_and_recover e store);
  let bad = ref (-1) in
  Engine.spawn e (fun () ->
      bad := 0;
      for i = 0 to 499 do
        let expect = if i mod 3 = 0 then value ~size:100 (i + 10000) else value ~size:100 i in
        match Store.get store ~tid:0 (key i) with
        | Some v when Bytes.equal v expect -> ()
        | _ -> incr bad
      done);
  ignore (Engine.run e);
  Alcotest.(check int) "latest durable versions" 0 !bad

let test_recovery_deletes_stay_deleted () =
  let e = Engine.create () in
  let store = Store.create e small_config in
  Engine.spawn e (fun () ->
      for i = 0 to 199 do
        Store.put store ~tid:0 (key i) (value i)
      done;
      for i = 0 to 199 do
        if i mod 2 = 0 then ignore (Store.delete store ~tid:0 (key i))
      done;
      Store.quiesce store);
  ignore (Engine.run e);
  let recovered = crash_and_recover e store in
  Alcotest.(check int) "half the keys" 100 recovered;
  let wrong = ref (-1) in
  Engine.spawn e (fun () ->
      wrong := 0;
      for i = 0 to 199 do
        let got = Store.get store ~tid:0 (key i) in
        let expect_present = i mod 2 = 1 in
        if Option.is_some got <> expect_present then incr wrong
      done);
  ignore (Engine.run e);
  Alcotest.(check int) "deletes durable" 0 !wrong

let test_double_crash_recovery () =
  let e = Engine.create () in
  let store = Store.create e small_config in
  Engine.spawn e (fun () ->
      for i = 0 to 299 do
        Store.put store ~tid:0 (key i) (value ~size:100 i)
      done;
      Store.quiesce store);
  ignore (Engine.run e);
  ignore (crash_and_recover e store);
  (* Write more after first recovery, then crash again. *)
  Engine.spawn e (fun () ->
      for i = 300 to 599 do
        Store.put store ~tid:0 (key i) (value ~size:100 i)
      done;
      Store.quiesce store);
  ignore (Engine.run e);
  let recovered = crash_and_recover e store in
  Alcotest.(check int) "both generations present" 600 recovered

(* ---- ablation configs ---- *)

let test_sync_reclaim_mode_works () =
  with_store ~cfg:{ small_config with async_reclaim = false } (fun _ store ->
      for i = 0 to 1499 do
        Store.put store ~tid:(i mod 4) (key i) (value ~size:128 i)
      done;
      let bad = ref 0 in
      for i = 0 to 1499 do
        match Store.get store ~tid:0 (key i) with
        | Some v when Bytes.equal v (value ~size:128 i) -> ()
        | _ -> incr bad
      done;
      Alcotest.(check int) "sync reclaim correct" 0 !bad)

let test_ta_mode_works () =
  with_store ~cfg:{ small_config with use_thread_combining = false }
    (fun _ store ->
      for i = 0 to 799 do
        Store.put store ~tid:(i mod 4) (key i) (value ~size:128 i)
      done;
      Store.quiesce store;
      let bad = ref 0 in
      for i = 0 to 799 do
        match Store.get store ~tid:0 (key i) with
        | Some v when Bytes.equal v (value ~size:128 i) -> ()
        | _ -> incr bad
      done;
      Alcotest.(check int) "TA mode correct" 0 !bad)

let test_no_scan_reorganize_mode () =
  with_store ~cfg:{ small_config with scan_reorganize = false }
    (fun _ store ->
      for i = 0 to 499 do
        Store.put store ~tid:0 (key i) (value ~size:128 i)
      done;
      Store.quiesce store;
      for round = 0 to 9 do
        ignore (Store.scan store ~tid:1 (key (round * 40)) 20)
      done;
      match Store.svc store with
      | Some svc -> Alcotest.(check int) "no reorganizations" 0 (Svc.reorganizations svc)
      | None -> Alcotest.fail "svc expected")

(* ---- model-based property test ---- *)

let prop_store_vs_map =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> `Put (k, v)) (int_bound 60) (int_bound 10_000));
          (3, map (fun k -> `Get k) (int_bound 60));
          (1, map (fun k -> `Delete k) (int_bound 60));
          (1, map2 (fun k n -> `Scan (k, 1 + (n mod 8))) (int_bound 60) (int_bound 8));
        ])
  in
  qcase ~count:40 "store behaves like Map (sequential ops)"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 150) op_gen))
    (fun ops ->
      let module M = Map.Make (String) in
      with_store (fun _ store ->
          let model = ref M.empty in
          let ok = ref true in
          List.iter
            (fun op ->
              match op with
              | `Put (k, v) ->
                  let k = key k in
                  let data = value ~size:64 v in
                  Store.put store ~tid:0 k data;
                  model := M.add k data !model
              | `Get k ->
                  let k = key k in
                  let got = Store.get store ~tid:0 k in
                  let expect = M.find_opt k !model in
                  (match (got, expect) with
                  | Some a, Some b when Bytes.equal a b -> ()
                  | None, None -> ()
                  | _ -> ok := false)
              | `Delete k ->
                  let k = key k in
                  let deleted = Store.delete store ~tid:0 k in
                  if deleted <> M.mem k !model then ok := false;
                  model := M.remove k !model
              | `Scan (k, n) ->
                  let k = key k in
                  let got = Store.scan store ~tid:0 k n in
                  let expect =
                    M.bindings !model
                    |> List.filter (fun (k', _) -> String.compare k' k >= 0)
                    |> List.filteri (fun i _ -> i < n)
                  in
                  if
                    List.map fst got <> List.map fst expect
                    || not
                         (List.for_all2
                            (fun (_, a) (_, b) -> Bytes.equal a b)
                            got expect)
                  then ok := false)
            ops;
          !ok && Store.length store = M.cardinal !model))

let prop_store_crash_recovery_durability =
  qcase ~count:15 "quiesced data survives crash"
    QCheck.(int_range 50 400)
    (fun n ->
      let e = Engine.create () in
      let store = Store.create e small_config in
      Engine.spawn e (fun () ->
          for i = 0 to n - 1 do
            Store.put store ~tid:(i mod 4) (key i) (value ~size:90 i)
          done;
          Store.quiesce store);
      ignore (Engine.run e);
      Engine.clear_pending e;
      Store.crash store;
      let recovered = ref (-1) in
      Engine.spawn e (fun () -> recovered := Store.recover store);
      ignore (Engine.run e);
      let ok = ref (!recovered = n) in
      Engine.spawn e (fun () ->
          for i = 0 to n - 1 do
            match Store.get store ~tid:0 (key i) with
            | Some v when Bytes.equal v (value ~size:90 i) -> ()
            | _ -> ok := false
          done);
      ignore (Engine.run e);
      !ok)

let test_art_index_end_to_end () =
  let e = Engine.create () in
  let store = Store.create e { small_config with key_index = `Art } in
  let n = 800 in
  Engine.spawn e (fun () ->
      for i = 0 to n - 1 do
        Store.put store ~tid:(i mod 4) (key i) (value ~size:120 i)
      done;
      Store.quiesce store;
      let bad = ref 0 in
      for i = 0 to n - 1 do
        match Store.get store ~tid:0 (key i) with
        | Some v when Bytes.equal v (value ~size:120 i) -> ()
        | _ -> incr bad
      done;
      Alcotest.(check int) "values intact on ART" 0 !bad;
      let rs = Store.scan store ~tid:1 (key 100) 5 in
      Alcotest.(check (list string)) "scan on ART"
        [ key 100; key 101; key 102; key 103; key 104 ]
        (List.map fst rs));
  ignore (Engine.run e);
  (* Crash + recovery must work identically on the ART index. *)
  let recovered = crash_and_recover e store in
  Alcotest.(check int) "recovered on ART" n recovered

let test_get_during_reclamation_races () =
  (* Readers hammer keys while a tiny PWB forces constant reclamation:
     every read must return a valid version, exercising the PWB->VS
     pointer-chase retries. *)
  let e = Engine.create () in
  let cfg = { small_config with pwb_size = 8192; threads = 5 } in
  let store = Store.create e cfg in
  let n = 300 in
  let writers = Sync.Latch.create 4 in
  for tid = 0 to 3 do
    Engine.spawn e (fun () ->
        for round = 0 to 9 do
          for i = 0 to n - 1 do
            if i mod 4 = tid then
              Store.put store ~tid (key i) (value ~size:200 (i + (round * n)))
          done
        done;
        Sync.Latch.arrive writers)
  done;
  let bad = ref 0 in
  let reads = ref 0 in
  Engine.spawn e (fun () ->
      for i = 0 to 5999 do
        match Store.get store ~tid:4 (key (i mod n)) with
        | Some v ->
            incr reads;
            if Bytes.length v <> 200 then incr bad
        | None -> ()
      done);
  Engine.spawn e (fun () -> Sync.Latch.wait writers);
  ignore (Engine.run e);
  Alcotest.(check int) "no malformed reads" 0 !bad;
  Alcotest.(check bool) "reads happened" true (!reads > 1000)

let test_interleaved_delete_and_put () =
  let e = Engine.create () in
  let store = Store.create e small_config in
  let rounds = 200 in
  let done_ = Sync.Latch.create 2 in
  Engine.spawn e (fun () ->
      for r = 0 to rounds - 1 do
        Store.put store ~tid:0 "churn" (value ~size:100 r)
      done;
      Sync.Latch.arrive done_);
  Engine.spawn e (fun () ->
      for _ = 0 to rounds - 1 do
        ignore (Store.delete store ~tid:1 "churn")
      done;
      Sync.Latch.arrive done_);
  let consistent = ref true in
  Engine.spawn e (fun () ->
      Sync.Latch.wait done_;
      (* Final state is either present with a valid value or absent; the
         index and HSIT must agree. *)
      match Store.get store ~tid:2 "churn" with
      | Some v -> if Bytes.length v <> 100 then consistent := false
      | None -> if Store.length store <> 0 then consistent := false);
  ignore (Engine.run e);
  Alcotest.(check bool) "index and HSIT agree" true !consistent

let test_scan_mixed_residency () =
  (* A scan whose range spans values in PWB (just written), SVC (cached)
     and VS (cold) must still return every key in order. *)
  let e = Engine.create () in
  let store = Store.create e small_config in
  let ok = ref false in
  Engine.spawn e (fun () ->
      for i = 0 to 299 do
        Store.put store ~tid:0 (key i) (value ~size:150 i)
      done;
      Store.quiesce store;
      (* Cache a few (SVC), rewrite a few (PWB), leave the rest cold. *)
      ignore (Store.get store ~tid:1 (key 101));
      ignore (Store.get store ~tid:1 (key 103));
      Store.put store ~tid:0 (key 102) (value ~size:150 9102);
      Store.put store ~tid:0 (key 105) (value ~size:150 9105);
      let rs = Store.scan store ~tid:2 (key 100) 8 in
      let keys_ok =
        List.map fst rs = List.init 8 (fun j -> key (100 + j))
      in
      let values_ok =
        List.for_all
          (fun (k, v) ->
            if k = key 102 then Bytes.equal v (value ~size:150 9102)
            else if k = key 105 then Bytes.equal v (value ~size:150 9105)
            else true)
          rs
      in
      ok := keys_ok && values_ok);
  ignore (Engine.run e);
  Alcotest.(check bool) "scan spans PWB+SVC+VS" true !ok

(* Pinned from the store before its scan path was rebuilt on flat
   buffers: a scan's SSD reads are grouped per chunk and submitted in one
   fixed order, which sets virtual time. Values are spread over many
   small chunks on both storages (four writers, 4 KiB chunks), so the
   first scan reads more than 32 chunks per storage; its SVC admissions
   overflow the cache, evicted chains are rewritten, and the second scan
   reads some of those rewritten runs. Each read landing is recorded as
   (storage, chunk), consecutive repeats folded, with the virtual time
   at which the scan returns. *)
let test_scan_read_order_pinned () =
  let cfg = { small_config with chunk_size = 4096 } in
  with_store ~cfg (fun e store ->
      let n = 6000 in
      for i = 0 to n - 1 do
        Store.put store ~tid:(i mod 4) (key i) (value ~size:100 i)
      done;
      Store.quiesce store;
      let reads = ref [] in
      Array.iter
        (fun vs ->
          let id = Value_storage.id vs in
          Prism_media.Ssd_image.set_read_hook (Value_storage.image vs)
            (Some
               (fun ~off ~len:_ ->
                 let here = (id, off / cfg.Config.chunk_size) in
                 match !reads with
                 | last :: _ when last = here -> ()
                 | _ -> reads := here :: !reads)))
        (Store.value_storages store);
      let scan from count =
        reads := [];
        let items = Store.scan store ~tid:0 (key from) count in
        let order =
          List.rev_map (fun (v, c) -> Printf.sprintf "%d:%d" v c) !reads
          |> String.concat " "
        in
        (items, order, Printf.sprintf "%h" (Engine.now e))
      in
      let expect from count items =
        Alcotest.(check (list string))
          "keys"
          (List.init count (fun j -> key (from + j)))
          (List.map fst items);
        List.iteri
          (fun j (_, v) ->
            Alcotest.check bytes_eq "value" (value ~size:100 (from + j)) v)
          items
      in
      let items, order, t1 = scan 0 n in
      expect 0 n items;
      Alcotest.(check int)
        "first scan: chunk reads" 180
        (List.length (String.split_on_char ' ' order));
      Alcotest.(check string)
        "first scan: read order digest" "cad02cd23321ba6cc6ce369cd8426ce1"
        (Digest.to_hex (Digest.string order));
      Alcotest.(check string) "first scan: done at" "0x1.5e360fc7d8c27p-6" t1;
      let items, order, t2 = scan 1000 60 in
      expect 1000 60 items;
      Alcotest.(check string)
        "second scan: read order" "0:15 0:19 0:18 0:17 0:16" order;
      Alcotest.(check string) "second scan: done at" "0x1.5fddd55bc6911p-6" t2)

(* One thread's scans share its scratch buffers, which grow to the
   largest scan seen: a short scan, a longer one that grows them, and one
   asking for more keys than the index holds, all on one tid and mostly
   read from SSD. Each result is the caller's own: the first scan's items
   still name their keys and values after the later scans reused and
   cleared the buffers. *)
let test_scan_scratch_reuse () =
  with_store (fun _ store ->
      let n = 2000 in
      for i = 0 to n - 1 do
        Store.put store ~tid:(i mod 4) (key i) (value ~size:128 i)
      done;
      Store.quiesce store;
      let check_range label from count items =
        Alcotest.(check (list string))
          (label ^ ": keys")
          (List.init count (fun j -> key (from + j)))
          (List.map fst items);
        List.iteri
          (fun j (_, v) ->
            Alcotest.check bytes_eq (label ^ ": value")
              (value ~size:128 (from + j))
              v)
          items
      in
      let short = Store.scan store ~tid:1 (key 10) 5 in
      check_range "short" 10 5 short;
      let longer = Store.scan store ~tid:1 (key 100) 400 in
      check_range "longer" 100 400 longer;
      let past_end = Store.scan store ~tid:1 (key 0) (n + 500) in
      check_range "past the end" 0 n past_end;
      check_range "short, after reuse" 10 5 short;
      check_range "longer, after reuse" 100 400 longer;
      Alcotest.(check bool) "read from SSD" true
        ((Store.stats store).Store.vs_reads > 0))

let test_hsit_capacity_exhaustion_is_loud () =
  let e = Engine.create () in
  let store =
    Store.create e { small_config with hsit_capacity = 64; nvm_size = 8 * 1024 * 1024 }
  in
  let failed = ref false in
  Engine.spawn e (fun () ->
      try
        for i = 0 to 200 do
          Store.put store ~tid:0 (key i) (value i)
        done
      with Failure _ -> failed := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "full table raises" true !failed

(* Crash at an arbitrary instant during a concurrent write storm: after
   recovery, no key may hold a torn or fabricated value, and keys that
   were quiesced before the crash window must all survive. *)
let prop_crash_anytime =
  qcase ~count:10 "crash at a random instant is safe"
    QCheck.(pair (int_range 1 50) (int_range 100 300))
    (fun (crash_tenths, n) ->
      let e = Engine.create () in
      let store = Store.create e small_config in
      (* Phase 1: a quiesced base that must survive any later crash. *)
      Engine.spawn e (fun () ->
          for i = 0 to n - 1 do
            Store.put store ~tid:0 (key i) (value ~size:80 i)
          done;
          Store.quiesce store);
      ignore (Engine.run e);
      let base_end = Engine.now e in
      (* Phase 2: concurrent updates, cut off mid-flight. *)
      for tid = 0 to 3 do
        Engine.spawn e (fun () ->
            for round = 1 to 50 do
              for i = 0 to n - 1 do
                if i mod 4 = tid then
                  Store.put store ~tid (key i)
                    (value ~size:80 (i + (round * n)))
              done
            done)
      done;
      let crash_at = base_end +. (float_of_int crash_tenths *. 1e-4) in
      ignore (Engine.run ~until:crash_at e);
      Engine.clear_pending e;
      Store.crash store;
      let ok = ref true in
      Engine.spawn e (fun () ->
          let recovered = Store.recover store in
          if recovered < n then ok := false;
          for i = 0 to n - 1 do
            match Store.get store ~tid:0 (key i) with
            | Some v -> (
                (* Value must be some version written for this key. *)
                match Prism_workload.Ycsb.version_of v with
                | Some _ -> ()
                | None ->
                    let s = Bytes.to_string v in
                    if
                      not
                        (String.length s > 6
                        && s.[0] = 'v'
                        &&
                        match String.index_opt s '-' with
                        | Some d1 -> (
                            match String.index_from_opt s (d1 + 1) '-' with
                            | Some d2 -> (
                                match
                                  int_of_string_opt
                                    (String.sub s (d1 + 1) (d2 - d1 - 1))
                                with
                                | Some ver -> ver mod n = i
                                | None -> false)
                            | None -> false)
                        | None -> false)
                    then ok := false)
            | None -> ok := false
          done);
      ignore (Engine.run e);
      !ok)

(* ---- single home ---- *)

(* Tiny PWBs on two threads force constant reclamation. *)
let churn_config = { small_config with threads = 2; pwb_size = 8192 }

(* Every HSIT entry must be claimed by at most one valid Value-Storage
   slot: a double claim means a move left its source live. The audit
   waits out any reclaimer pass still running after [quiesce]: a move in
   flight holds both homes until its pointer swap persists. *)
let audit_single_home store =
  while Store.reclaiming store do
    Engine.delay 10e-6
  done;
  let claims = Hashtbl.create 64 in
  Array.iteri
    (fun vsi vs ->
      Value_storage.iter_valid vs (fun ~gen:_ ~chunk ~slot ~hsit_id ->
          let where = Printf.sprintf "vs%d(chunk %d, slot %d)" vsi chunk slot in
          match Hashtbl.find_opt claims hsit_id with
          | Some other ->
              Alcotest.failf "hsit id %d live in both %s and %s" hsit_id
                other where
          | None -> Hashtbl.add claims hsit_id where))
    (Store.value_storages store)

(* Runs [(key, action)] ops on two alternating threads (actions 0-4
   put, 5-8 get, 9 delete), then checks the single-home invariant, that
   every acked value reads back, and the store's length. *)
let single_home_run ops =
  with_store ~cfg:churn_config (fun _ store ->
      let model = Hashtbl.create 64 in
      List.iteri
        (fun i (k, action) ->
          let k = key k in
          let tid = i mod 2 in
          if action <= 4 then begin
            let v = value ~size:48 ((i * 31) + action) in
            Store.put store ~tid k v;
            Hashtbl.replace model k v
          end
          else if action <= 8 then ignore (Store.get store ~tid k)
          else begin
            ignore (Store.delete store ~tid k);
            Hashtbl.remove model k
          end)
        ops;
      Store.quiesce store;
      audit_single_home store;
      Hashtbl.iter
        (fun k v ->
          match Store.get store ~tid:0 k with
          | Some got when Bytes.equal got v -> ()
          | Some _ -> Alcotest.failf "key %s: stale value after churn" k
          | None -> Alcotest.failf "acked key %s unreadable" k)
        model;
      (* One scan over the whole key range (keys 0..30) reaches every
         home — SVC, PWB and Value Storage — through the scan path. *)
      let want =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let got = Store.scan store ~tid:0 (key 0) 31 in
      if
        not
          (List.equal
             (fun (k, v) (k', v') -> String.equal k k' && Bytes.equal v v')
             want got)
      then
        Alcotest.failf "scan returned [%s], model holds [%s]"
          (String.concat " " (List.map fst got))
          (String.concat " " (List.map fst want));
      Store.length store = Hashtbl.length model)

let prop_single_home =
  qcase ~count:40 "acked values live in exactly one home"
    QCheck.(
      list_of_size Gen.(int_range 60 400) (pair (int_bound 30) (int_bound 9)))
    single_home_run

(* A put reads the entry's location (one NVM read), then swaps in its
   own (one NVM write charge, then the swap). A reclaim pass whose
   [install] CAS lands between the two has moved the value from the PWB
   to Value Storage under the put. Releasing the location the put read
   (the PWB record, a no-op) would leave the new slot valid and
   unreferenced, and once the put's own record is reclaimed the key has
   two valid homes; the put must release the one its swap replaced.
   Random churn almost never lands in that window, so this steps the
   put's start across the pass's first CAS.

   Thread 0 writes [fill] keys, enough to pass its PWB's watermark, so
   its reclaimer moves them (key 0 in the chunk's first slot) while a
   put of key 0 on thread 1 starts [delay] seconds later. Thread 1 then
   writes [fill] more keys so its own record of key 0 is reclaimed too.
   Returns the virtual time, from the end of thread 0's writes, at which
   the reclaimer had repointed its first value, when [watch] is set. *)
let fill = 64

let move_under_put ?(watch = false) ~delay () =
  with_store ~cfg:churn_config (fun e store ->
      for i = 0 to fill - 1 do
        Store.put store ~tid:0 (key i) (value ~size:48 i)
      done;
      let t0 = Engine.now e in
      let first_move = ref infinity in
      if watch then
        Engine.spawn e (fun () ->
            while fst (Store.reclaim_stats store) = 0 do
              Engine.delay 10e-9
            done;
            first_move := Engine.now e -. t0);
      let put_done = ref false in
      Engine.spawn e (fun () ->
          Engine.delay delay;
          Store.put store ~tid:1 (key 0) (value ~size:48 fill);
          put_done := true);
      while not !put_done do
        Engine.delay 1e-6
      done;
      for i = fill + 1 to (2 * fill) - 1 do
        Store.put store ~tid:1 (key i) (value ~size:48 i)
      done;
      Store.quiesce store;
      audit_single_home store;
      Alcotest.check bytes_eq "key 0 holds the put's value" (value ~size:48 fill)
        (Option.get (Store.get store ~tid:0 (key 0)));
      !first_move)

let test_move_under_put () =
  let first_move = move_under_put ~watch:true ~delay:0.0 () in
  Alcotest.(check bool) "the reclaimer moved a value" true
    (Float.is_finite first_move);
  (* The put reaches its read after an index lookup and a persisted PWB
     append: about 5 us here, so the sweep covers 10 us before the first
     move. Between the read and the swap lies one NVM write charge
     (~90 ns), so 20 ns steps cannot skip the window. *)
  let step = 20e-9 and span = 10e-6 in
  let steps = int_of_float (span /. step) in
  for i = 0 to steps do
    let delay = Float.max 0.0 (first_move -. span +. (float_of_int i *. step)) in
    ignore (move_under_put ~delay () : float)
  done

let () =
  Alcotest.run "store"
    [
      ( "basic",
        [
          case "put/get" test_put_get;
          case "update overwrites" test_update_overwrites;
          case "delete" test_delete;
          case "delete then reinsert" test_delete_then_reinsert;
          case "empty value rejected" test_empty_value_rejected;
          case "scan" test_scan_basic;
          case "scan skips deleted" test_scan_skips_deleted;
        ] );
      ( "volume",
        [
          case "survives reclamation" test_data_survives_reclamation;
          case "reclaimer dedups" test_updates_deduplicated_by_reclaimer;
          case "stats" test_stats_accumulate;
          case "nvm footprint" test_nvm_footprint_reported;
        ] );
      ( "concurrency",
        [
          case "writers distinct keys" test_concurrent_writers_distinct_keys;
          case "same key converges" test_concurrent_update_same_key_converges;
          case "readers during writes" test_readers_during_writes_see_valid_values;
        ] );
      ( "svc",
        [
          case "caches hot reads" test_svc_caches_hot_reads;
          case "disabled config" test_svc_disabled_config;
          case "invalidated on update" test_svc_invalidated_on_update;
          case "eviction" test_svc_eviction_under_pressure;
          case "scan reorganization" test_scan_reorganization_runs;
        ] );
      ( "edge-cases",
        [
          case "get during reclamation" test_get_during_reclamation_races;
          case "delete vs put churn" test_interleaved_delete_and_put;
          case "scan mixed residency" test_scan_mixed_residency;
          case "scan read order pinned" test_scan_read_order_pinned;
          case "scan scratch reuse" test_scan_scratch_reuse;
          case "hsit exhaustion" test_hsit_capacity_exhaustion_is_loud;
          case "vs gc under pressure" test_vs_gc_under_pressure;
        ] );
      ( "crash-recovery",
        [
          case "clean load" test_recovery_after_clean_load;
          case "mid-flight crash" test_recovery_mid_flight;
          case "updates preserved" test_recovery_preserves_updates;
          case "deletes durable" test_recovery_deletes_stay_deleted;
          case "double crash" test_double_crash_recovery;
        ] );
      ( "ablations",
        [
          case "ART key index" test_art_index_end_to_end;
          case "sync reclaim" test_sync_reclaim_mode_works;
          case "TA read path" test_ta_mode_works;
          case "no reorganization" test_no_scan_reorganize_mode;
        ] );
      ( "properties",
        [
          prop_store_vs_map;
          prop_store_crash_recovery_durability;
          prop_crash_anytime;
        ] );
      ( "single-home",
        [
          prop_single_home;
          case "a move under a put is released" test_move_under_put;
        ] );
    ]
