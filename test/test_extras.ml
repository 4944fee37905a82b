(* Tests for the auxiliary harness/workload features: cost accounting
   (Table 1), trace record/replay, and direct SVC cache mechanics. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Helpers

(* ---- Costing ---- *)

let test_costing_equal_cost () =
  let bills = Costing.all Setup.default_scenario in
  Alcotest.(check int) "three systems" 3 (List.length bills);
  Alcotest.(check bool) "Table 1 equal-cost holds" true
    (Costing.balanced bills)

let test_costing_proportions () =
  let s = Setup.default_scenario in
  let p = Costing.prism s in
  let k = Costing.kvell s in
  let d = Setup.dataset_bytes s in
  Alcotest.(check int) "prism dram 20%" (d * 20 / 100) p.Costing.dram_bytes;
  Alcotest.(check int) "prism nvm 16%" (d * 16 / 100) p.Costing.nvm_bytes;
  Alcotest.(check int) "kvell dram 32%" (d * 32 / 100) k.Costing.dram_bytes;
  Alcotest.(check int) "kvell no nvm" 0 k.Costing.nvm_bytes;
  Alcotest.(check bool) "nvm costs money" true (p.Costing.nvm_cost > 0.0)

let test_costing_balance_tolerance () =
  let bill system total_cost =
    {
      Costing.system;
      dram_bytes = 0;
      nvm_bytes = 0;
      dram_cost = total_cost;
      nvm_cost = 0.0;
      total_cost;
    }
  in
  Alcotest.(check bool) "within" true
    (Costing.balanced [ bill "a" 100.0; bill "b" 101.0 ]);
  Alcotest.(check bool) "outside" false
    (Costing.balanced [ bill "a" 100.0; bill "b" 110.0 ])

(* ---- Trace ---- *)

let sample_trace () =
  let gen =
    Ycsb.create Ycsb.ycsb_a ~records:500 ~theta:0.99 ~value_size:64
      (Rng.create 21L)
  in
  Trace.record gen ~ops:200

let test_trace_record_counts () =
  let t = sample_trace () in
  Alcotest.(check int) "length" 200 (Array.length t);
  let r, u, i, s, d = Trace.summary t in
  Alcotest.(check int) "total" 200 (r + u + i + s + d);
  Alcotest.(check bool) "mostly reads+updates" true (r > 50 && u > 50)

let test_trace_text_roundtrip () =
  let t = sample_trace () in
  match Trace.of_string (Trace.to_string t) with
  | Ok t' -> Alcotest.(check bool) "roundtrip" true (t = t')
  | Error e -> Alcotest.fail e

let test_trace_file_roundtrip () =
  let t = sample_trace () in
  let path = Filename.temp_file "prism_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t ~path;
      match Trace.load ~path with
      | Ok t' -> Alcotest.(check bool) "roundtrip" true (t = t')
      | Error e -> Alcotest.fail e)

let test_trace_parse_errors () =
  (match Trace.of_string "R key1\nBOGUS line\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match Trace.of_string "U key1 notanint 3\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

(* A store that only records the calls [Kv.apply] makes on it. *)
let recording_kv calls =
  {
    Kv.name = "recorder";
    stat_prefix = "recorder";
    put = (fun ~tid:_ k v -> calls := `Put (k, v) :: !calls);
    get = (fun ~tid:_ k -> calls := `Get k :: !calls; None);
    delete = (fun ~tid:_ k -> calls := `Delete k :: !calls; false);
    scan = (fun ~tid:_ k n -> calls := `Scan (k, n) :: !calls; []);
    quiesce = ignore;
    recover = None;
  }

let test_trace_materialize () =
  let calls = ref [] in
  let kv = recording_kv calls in
  Kv.apply kv ~tid:0 (Trace.Update ("k", 64, 7));
  (match !calls with
  | [ `Put (k, v) ] ->
      Alcotest.(check string) "key" "k" k;
      Alcotest.(check (option int)) "version" (Some 7) (Ycsb.version_of v);
      Alcotest.(check int) "size" 64 (Bytes.length v)
  | _ -> Alcotest.fail "expected update");
  calls := [];
  Kv.apply kv ~tid:0 (Trace.Scan ("k", 9));
  match !calls with
  | [ `Scan ("k", 9) ] -> ()
  | _ -> Alcotest.fail "expected scan"

let test_trace_replay_deterministic () =
  (* Replaying the same trace against two fresh stores produces identical
     final states. *)
  let t = sample_trace () in
  let run () =
    let e = Engine.create () in
    let store = Prism_core.Store.create e Prism_core.Config.default in
    let out = ref [] in
    let kv = Kv.of_prism store in
    let get ~tid k =
      let r = kv.Kv.get ~tid k in
      Option.iter (fun v -> out := (k, Bytes.to_string v) :: !out) r;
      r
    in
    let kv = { kv with Kv.get } in
    Engine.spawn e (fun () -> Array.iter (Kv.apply kv ~tid:0) t);
    ignore (Engine.run e);
    !out
  in
  Alcotest.(check bool) "identical replays" true (run () = run ())

(* ---- SVC direct mechanics ---- *)

open Prism_core

let with_svc ?(capacity = 8 * 1024) f =
  let e = Engine.create () in
  let nvm =
    Prism_media.Nvm.create e ~spec:Prism_device.Spec.optane_dcpmm
      ~size:(256 * 1024) ()
  in
  let hsit = Hsit.create nvm ~capacity:256 in
  let epoch = Epoch.create ~threads:4 in
  let svc =
    Svc.create e ~capacity ~cost:Prism_device.Cost.default ~epoch ~hsit
  in
  Svc.start_manager svc;
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e hsit epoch svc));
  ignore (Engine.run e);
  match !result with Some r -> r | None -> Alcotest.fail "did not complete"

let admit svc hsit i =
  let id = Hsit.alloc hsit in
  let idx =
    Svc.admit svc ~hsit_id:id ~key:(key i) ~value:(value ~size:100 i)
      ~cached_from:(Location.In_vs { vs = 0; gen = 0; chunk = 0; slot = i })
  in
  (id, idx)

let test_svc_admit_publish_lookup () =
  with_svc (fun _ hsit _ svc ->
      let id, idx = admit svc hsit 1 in
      (match idx with
      | Some idx -> (
          Alcotest.(check (option int)) "published" (Some idx)
            (Hsit.read_svc hsit id);
          match Svc.lookup svc ~idx ~hsit_id:id with
          | Some v -> Alcotest.check bytes_eq "value" (value ~size:100 1) v
          | None -> Alcotest.fail "lookup failed")
      | None -> Alcotest.fail "admission failed"))

let test_svc_lookup_wrong_binding () =
  with_svc (fun _ hsit _ svc ->
      let _, idx = admit svc hsit 1 in
      match idx with
      | Some idx ->
          Alcotest.(check bool) "wrong hsit id rejected" true
            (Svc.lookup svc ~idx ~hsit_id:9999 = None)
      | None -> Alcotest.fail "admission failed")

let test_svc_double_admit_loses () =
  with_svc (fun _ hsit _ svc ->
      let id = Hsit.alloc hsit in
      let a =
        Svc.admit svc ~hsit_id:id ~key:"k" ~value:(Bytes.of_string "v1")
          ~cached_from:Location.Nowhere
      in
      let b =
        Svc.admit svc ~hsit_id:id ~key:"k" ~value:(Bytes.of_string "v2")
          ~cached_from:Location.Nowhere
      in
      Alcotest.(check bool) "first wins" true (a <> None);
      Alcotest.(check bool) "second loses" true (b = None))

let test_svc_invalidate_unpublishes () =
  with_svc (fun _ hsit _ svc ->
      let id, idx = admit svc hsit 1 in
      ignore idx;
      Svc.invalidate svc ~hsit_id:id;
      Alcotest.(check (option int)) "unpublished" None (Hsit.read_svc hsit id))

let test_svc_eviction_under_capacity_pressure () =
  with_svc ~capacity:(2 * 1024) (fun e hsit _ svc ->
      for i = 0 to 49 do
        ignore (admit svc hsit i)
      done;
      (* Let the manager drain its mailbox. *)
      Engine.delay 1e-3;
      ignore e;
      Alcotest.(check bool) "evictions happened" true (Svc.evictions svc > 0);
      Alcotest.(check bool) "bytes bounded" true
        (Svc.used_bytes svc <= 3 * 2 * 1024))

let test_svc_chain_reorganize_callback () =
  with_svc ~capacity:(2 * 1024) (fun e hsit _ svc ->
      let got = ref [] in
      Svc.set_reorganize svc (fun members ->
          got := Array.to_list (Array.map (fun m -> m.Svc.key) members) :: !got);
      (* Admit three values, link them into a scan chain, then force
         eviction. *)
      let idxs =
        List.filter_map (fun i -> snd (admit svc hsit i)) [ 3; 1; 2 ]
      in
      Engine.delay 1e-3;
      Svc.link_chain svc (Array.of_list idxs) (List.length idxs);
      for i = 100 to 140 do
        ignore (admit svc hsit i)
      done;
      Engine.delay 1e-3;
      ignore e;
      match List.rev !got with
      | sorted_keys :: _ ->
          Alcotest.(check (list string)) "chain sorted by key"
            [ key 1; key 2; key 3 ]
            sorted_keys
      | [] -> Alcotest.fail "reorganize never invoked")

let test_svc_clear_drops_everything () =
  with_svc (fun e _hsit _ svc ->
      let reg = Engine.stats e in
      Svc.register_stats svc reg ~prefix:"svc";
      Svc.clear svc;
      Alcotest.(check int) "no entries" 0 (Stats.get_int reg "svc.entries");
      Alcotest.(check int) "no bytes" 0 (Svc.used_bytes svc))

(* Values are shared with the cache, not copied: an entry keeps the
   bytes it was admitted with and a hit returns them. *)
let admit_kept svc hsit value =
  let id = Hsit.alloc hsit in
  let idx =
    Svc.admit_index svc ~hsit_id:id ~key:"k" ~value
      ~from_:(Location.vs_word ~vs:0 ~gen:0 ~chunk:0 ~slot:0)
  in
  if idx < 0 then Alcotest.fail "admission failed";
  (id, idx)

let test_svc_admission_keeps_bytes () =
  with_svc (fun _ hsit _ svc ->
      let v = value ~size:100 7 in
      let id, idx = admit_kept svc hsit v in
      Alcotest.(check bool) "same bytes" true
        (Svc.lookup_value svc ~idx ~hsit_id:id == v))

let test_svc_hit_copies_nothing () =
  with_svc ~capacity:(64 * 1024) (fun _ hsit _ svc ->
      let v = Bytes.make 1024 'v' in
      let id, idx = admit_kept svc hsit v in
      ignore (Svc.lookup_value svc ~idx ~hsit_id:id : bytes);
      let before = Gc.minor_words () in
      let got = Svc.lookup_value svc ~idx ~hsit_id:id in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) "hit" 1024 (Bytes.length got);
      (* A copy would be 129 words, in the minor heap (a value over 2 KiB
         would go straight to the major heap, where this cannot see it). *)
      if words >= 32.0 then
        Alcotest.failf "a hit allocated %.0f words" words)

let () =
  Alcotest.run "extras"
    [
      ( "costing",
        [
          case "equal cost" test_costing_equal_cost;
          case "proportions" test_costing_proportions;
          case "tolerance" test_costing_balance_tolerance;
        ] );
      ( "trace",
        [
          case "record counts" test_trace_record_counts;
          case "text roundtrip" test_trace_text_roundtrip;
          case "file roundtrip" test_trace_file_roundtrip;
          case "parse errors" test_trace_parse_errors;
          case "materialize" test_trace_materialize;
          case "deterministic replay" test_trace_replay_deterministic;
        ] );
      ( "svc",
        [
          case "admit/publish/lookup" test_svc_admit_publish_lookup;
          case "wrong binding" test_svc_lookup_wrong_binding;
          case "double admit" test_svc_double_admit_loses;
          case "invalidate" test_svc_invalidate_unpublishes;
          case "eviction" test_svc_eviction_under_capacity_pressure;
          case "chain reorganize" test_svc_chain_reorganize_callback;
          case "clear" test_svc_clear_drops_everything;
          case "admission keeps the caller's bytes"
            test_svc_admission_keeps_bytes;
          case "a hit allocates no value copy" test_svc_hit_copies_nothing;
        ] );
    ]
