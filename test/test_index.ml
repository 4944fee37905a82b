(* Tests for the index library: B+-tree (model-checked against Map),
   skiplist, bloom filter, string hashing. *)

open Prism_index
open Helpers

let no_charge _ _ = ()

let make_btree ?(order = 8) () = Btree.create ~order ~on_access:no_charge ()

(* ---- Btree basics ---- *)

let test_btree_empty () =
  let t = make_btree () in
  Alcotest.(check int) "length" 0 (Btree.length t);
  Alcotest.(check bool) "empty" true (Btree.is_empty t);
  Alcotest.(check (option int)) "find" None (Btree.find t "a");
  Alcotest.(check bool) "delete missing" false (Btree.delete t "a");
  Alcotest.(check (list (pair string int))) "scan" [] (Btree.scan t ~from:"" ~count:10)

let test_btree_insert_find () =
  let t = make_btree () in
  Alcotest.(check (option int)) "fresh" None (Btree.insert t "b" 2);
  Alcotest.(check (option int)) "fresh" None (Btree.insert t "a" 1);
  Alcotest.(check (option int)) "fresh" None (Btree.insert t "c" 3);
  Alcotest.(check (option int)) "find a" (Some 1) (Btree.find t "a");
  Alcotest.(check (option int)) "find b" (Some 2) (Btree.find t "b");
  Alcotest.(check (option int)) "find c" (Some 3) (Btree.find t "c");
  Alcotest.(check (option int)) "missing" None (Btree.find t "d");
  Alcotest.(check int) "length" 3 (Btree.length t)

let test_btree_replace () =
  let t = make_btree () in
  ignore (Btree.insert t "k" 1);
  Alcotest.(check (option int)) "previous returned" (Some 1)
    (Btree.insert t "k" 2);
  Alcotest.(check (option int)) "replaced" (Some 2) (Btree.find t "k");
  Alcotest.(check int) "length unchanged" 1 (Btree.length t)

let test_btree_many_inserts_splits () =
  let t = make_btree ~order:4 () in
  let n = 1000 in
  for i = 0 to n - 1 do
    ignore (Btree.insert t (key i) i)
  done;
  Alcotest.(check int) "length" n (Btree.length t);
  Alcotest.(check bool) "height grew" true (Btree.height t > 2);
  for i = 0 to n - 1 do
    if Btree.find t (key i) <> Some i then Alcotest.failf "lost key %d" i
  done

let test_btree_delete () =
  let t = make_btree ~order:4 () in
  for i = 0 to 99 do
    ignore (Btree.insert t (key i) i)
  done;
  for i = 0 to 99 do
    if i mod 2 = 0 then
      Alcotest.(check bool) "deleted" true (Btree.delete t (key i))
  done;
  Alcotest.(check int) "half left" 50 (Btree.length t);
  for i = 0 to 99 do
    let expect = if i mod 2 = 0 then None else Some i in
    if Btree.find t (key i) <> expect then Alcotest.failf "wrong at %d" i
  done;
  Alcotest.(check bool) "delete again" false (Btree.delete t (key 0))

let test_btree_scan_ordered () =
  let t = make_btree ~order:4 () in
  let rng = Prism_sim.Rng.create 9L in
  let order = Array.init 500 (fun i -> i) in
  Prism_sim.Rng.shuffle rng order;
  Array.iter (fun i -> ignore (Btree.insert t (key i) i)) order;
  let scanned = Btree.scan t ~from:(key 100) ~count:20 in
  Alcotest.(check int) "count" 20 (List.length scanned);
  List.iteri
    (fun j (k, v) ->
      Alcotest.(check string) "key order" (key (100 + j)) k;
      Alcotest.(check int) "value" (100 + j) v)
    scanned

let test_btree_scan_from_between_keys () =
  let t = make_btree () in
  ignore (Btree.insert t "b" 2);
  ignore (Btree.insert t "d" 4);
  let scanned = Btree.scan t ~from:"c" ~count:5 in
  Alcotest.(check (list (pair string int))) "starts at d" [ ("d", 4) ] scanned

let test_btree_scan_past_end () =
  let t = make_btree () in
  ignore (Btree.insert t "a" 1);
  Alcotest.(check (list (pair string int))) "empty" []
    (Btree.scan t ~from:"z" ~count:5)

let test_btree_iter_fold () =
  let t = make_btree ~order:4 () in
  for i = 9 downto 0 do
    ignore (Btree.insert t (key i) i)
  done;
  let visited = ref [] in
  Btree.iter t (fun k _ -> visited := k :: !visited);
  Alcotest.(check (list string)) "ascending"
    (List.init 10 key)
    (List.rev !visited);
  Alcotest.(check int) "fold sum" 45 (Btree.fold t 0 (fun acc _ v -> acc + v))

let test_btree_on_access_called () =
  let reads = ref 0 and writes = ref 0 in
  let t =
    Btree.create ~order:4
      ~on_access:(fun kind _ ->
        match kind with `Read -> incr reads | `Write -> incr writes)
      ()
  in
  for i = 0 to 99 do
    ignore (Btree.insert t (key i) i)
  done;
  Alcotest.(check bool) "writes charged" true (!writes >= 100);
  let w = !writes in
  ignore (Btree.find t (key 50));
  Alcotest.(check bool) "find charges reads only" true
    (!reads > 0 && !writes = w)

let test_btree_approx_bytes_grows () =
  let t = make_btree () in
  let empty = Btree.approx_bytes t in
  for i = 0 to 999 do
    ignore (Btree.insert t (key i) i)
  done;
  Alcotest.(check bool) "grew" true (Btree.approx_bytes t > empty + 10_000)

(* Model-based property test against Map. *)
let prop_btree_vs_map =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> `Insert k) (int_bound 200);
          map (fun k -> `Delete k) (int_bound 200);
          map (fun k -> `Find k) (int_bound 200);
        ])
  in
  qcase ~count:100 "btree behaves like Map"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) op_gen))
    (fun ops ->
      let module M = Map.Make (String) in
      let t = make_btree ~order:4 () in
      let model = ref M.empty in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | `Insert k ->
              let k = key k in
              let prev = Btree.insert t k i in
              if prev <> M.find_opt k !model then ok := false;
              model := M.add k i !model
          | `Delete k ->
              let k = key k in
              let deleted = Btree.delete t k in
              if deleted <> M.mem k !model then ok := false;
              model := M.remove k !model
          | `Find k ->
              let k = key k in
              if Btree.find t k <> M.find_opt k !model then ok := false)
        ops;
      !ok
      && Btree.length t = M.cardinal !model
      && Btree.fold t [] (fun acc k v -> (k, v) :: acc) = (M.bindings !model |> List.rev_map (fun (k, v) -> (k, v))))

let prop_btree_scan_matches_map =
  qcase ~count:100 "scan matches Map range"
    QCheck.(pair (small_list (int_bound 300)) (int_bound 300))
    (fun (keys, from) ->
      let module M = Map.Make (String) in
      let t = make_btree ~order:4 () in
      let model =
        List.fold_left
          (fun m k ->
            ignore (Btree.insert t (key k) k);
            M.add (key k) k m)
          M.empty keys
      in
      let from_key = key from in
      let expect =
        M.bindings model
        |> List.filter (fun (k, _) -> String.compare k from_key >= 0)
        |> List.filteri (fun i _ -> i < 10)
      in
      Btree.scan t ~from:from_key ~count:10 = expect)

(* ---- Skiplist ---- *)

let make_skiplist () = Skiplist.create ~rng:(Prism_sim.Rng.create 77L) ()

let test_skiplist_basic () =
  let s = make_skiplist () in
  Alcotest.(check bool) "empty" true (Skiplist.is_empty s);
  ignore (Skiplist.insert s "b" 2);
  ignore (Skiplist.insert s "a" 1);
  ignore (Skiplist.insert s "c" 3);
  Alcotest.(check (option int)) "find" (Some 2) (Skiplist.find s "b");
  Alcotest.(check (option int)) "missing" None (Skiplist.find s "x");
  Alcotest.(check int) "length" 3 (Skiplist.length s);
  Alcotest.(check (option string)) "min" (Some "a") (Skiplist.min_key s);
  Alcotest.(check (option string)) "max" (Some "c") (Skiplist.max_key s)

let test_skiplist_replace () =
  let s = make_skiplist () in
  ignore (Skiplist.insert s "k" 1);
  ignore (Skiplist.insert s "k" 2);
  Alcotest.(check (option int)) "replaced" (Some 2) (Skiplist.find s "k");
  Alcotest.(check int) "no duplicate" 1 (Skiplist.length s)

let test_skiplist_ordered_iteration () =
  let s = make_skiplist () in
  let rng = Prism_sim.Rng.create 5L in
  let order = Array.init 300 (fun i -> i) in
  Prism_sim.Rng.shuffle rng order;
  Array.iter (fun i -> ignore (Skiplist.insert s (key i) i)) order;
  let last = ref "" in
  let sorted = ref true in
  Skiplist.iter s (fun k _ ->
      if String.compare k !last < 0 then sorted := false;
      last := k);
  Alcotest.(check bool) "sorted" true !sorted

let test_skiplist_delete () =
  let s = make_skiplist () in
  for i = 0 to 49 do
    ignore (Skiplist.insert s (key i) i)
  done;
  Alcotest.(check bool) "delete" true (Skiplist.delete s (key 25));
  Alcotest.(check bool) "gone" true (Skiplist.find s (key 25) = None);
  Alcotest.(check bool) "again" false (Skiplist.delete s (key 25));
  Alcotest.(check int) "length" 49 (Skiplist.length s)

let test_skiplist_scan () =
  let s = make_skiplist () in
  for i = 0 to 99 do
    ignore (Skiplist.insert s (key i) i)
  done;
  let scanned = Skiplist.scan s ~from:(key 40) ~count:5 in
  Alcotest.(check (list string)) "range"
    [ key 40; key 41; key 42; key 43; key 44 ]
    (List.map fst scanned)

let prop_skiplist_vs_map =
  qcase ~count:100 "skiplist behaves like Map"
    QCheck.(small_list (pair (int_bound 100) (int_bound 1000)))
    (fun kvs ->
      let module M = Map.Make (String) in
      let s = make_skiplist () in
      let model =
        List.fold_left
          (fun m (k, v) ->
            ignore (Skiplist.insert s (key k) v);
            M.add (key k) v m)
          M.empty kvs
      in
      M.for_all (fun k v -> Skiplist.find s k = Some v) model
      && Skiplist.length s = M.cardinal model)

(* ---- Bloom ---- *)

let test_bloom_no_false_negatives () =
  let b = Bloom.create ~expected_entries:1000 () in
  for i = 0 to 999 do
    Bloom.add b (key i)
  done;
  for i = 0 to 999 do
    if not (Bloom.mem b (key i)) then Alcotest.failf "false negative %d" i
  done

let test_bloom_false_positive_rate () =
  let b = Bloom.create ~expected_entries:1000 ~bits_per_key:10 () in
  for i = 0 to 999 do
    Bloom.add b (key i)
  done;
  let fp = ref 0 in
  for i = 1000 to 10_999 do
    if Bloom.mem b (key i) then incr fp
  done;
  let rate = float_of_int !fp /. 10_000.0 in
  (* 10 bits/key should give ~1%; allow generous slack. *)
  if rate > 0.05 then Alcotest.failf "false positive rate %f too high" rate

let test_bloom_empty_rejects () =
  let b = Bloom.create ~expected_entries:100 () in
  let any = ref false in
  for i = 0 to 99 do
    if Bloom.mem b (key i) then any := true
  done;
  Alcotest.(check bool) "empty filter matches nothing" false !any

let test_bloom_sizing () =
  let b = Bloom.create ~expected_entries:1000 ~bits_per_key:10 () in
  Alcotest.(check int) "bytes" 1250 (Bloom.byte_size b);
  Alcotest.(check bool) "probes" true (Bloom.probes b >= 5 && Bloom.probes b <= 8)


(* ---- Art ---- *)

let make_art () = Art.create ~on_access:no_charge ()

let test_art_empty () =
  let t = make_art () in
  Alcotest.(check int) "length" 0 (Art.length t);
  Alcotest.(check bool) "empty" true (Art.is_empty t);
  Alcotest.(check (option int)) "find" None (Art.find t "a");
  Alcotest.(check bool) "delete missing" false (Art.delete t "a")

let test_art_insert_find () =
  let t = make_art () in
  Alcotest.(check (option int)) "fresh" None (Art.insert t "beta" 2);
  Alcotest.(check (option int)) "fresh" None (Art.insert t "alpha" 1);
  Alcotest.(check (option int)) "fresh" None (Art.insert t "betamax" 3);
  Alcotest.(check (option int)) "alpha" (Some 1) (Art.find t "alpha");
  Alcotest.(check (option int)) "beta" (Some 2) (Art.find t "beta");
  Alcotest.(check (option int)) "betamax" (Some 3) (Art.find t "betamax");
  Alcotest.(check (option int)) "prefix not a member" None (Art.find t "bet");
  Alcotest.(check (option int)) "extension not a member" None (Art.find t "betam");
  Alcotest.(check int) "length" 3 (Art.length t)

let test_art_replace_and_delete () =
  let t = make_art () in
  ignore (Art.insert t "k" 1);
  Alcotest.(check (option int)) "previous" (Some 1) (Art.insert t "k" 2);
  Alcotest.(check int) "no dup" 1 (Art.length t);
  Alcotest.(check bool) "delete" true (Art.delete t "k");
  Alcotest.(check (option int)) "gone" None (Art.find t "k");
  Alcotest.(check bool) "delete again" false (Art.delete t "k")

let test_art_prefix_keys_coexist () =
  let t = make_art () in
  ignore (Art.insert t "a" 1);
  ignore (Art.insert t "ab" 2);
  ignore (Art.insert t "abc" 3);
  ignore (Art.insert t "" 0);
  Alcotest.(check (option int)) "empty key" (Some 0) (Art.find t "");
  Alcotest.(check (option int)) "a" (Some 1) (Art.find t "a");
  Alcotest.(check (option int)) "ab" (Some 2) (Art.find t "ab");
  Alcotest.(check (option int)) "abc" (Some 3) (Art.find t "abc")

let test_art_grows_through_node_classes () =
  (* > 48 distinct first bytes forces N4 -> N48 -> N256 upgrades. *)
  let t = make_art () in
  for i = 0 to 199 do
    ignore (Art.insert t (Printf.sprintf "%c-%03d" (Char.chr (i mod 200 + 32)) i) i)
  done;
  for i = 0 to 199 do
    let k = Printf.sprintf "%c-%03d" (Char.chr (i mod 200 + 32)) i in
    if Art.find t k <> Some i then Alcotest.failf "lost %s" k
  done

let test_art_ordered_iteration () =
  let t = make_art () in
  let rng = Prism_sim.Rng.create 31L in
  let order = Array.init 500 (fun i -> i) in
  Prism_sim.Rng.shuffle rng order;
  Array.iter (fun i -> ignore (Art.insert t (key i) i)) order;
  let visited = ref [] in
  Art.iter t (fun k _ -> visited := k :: !visited);
  Alcotest.(check bool) "ascending order" true
    (List.rev !visited = List.init 500 key)

let test_art_scan () =
  let t = make_art () in
  for i = 0 to 99 do
    ignore (Art.insert t (key i) i)
  done;
  let scanned = Art.scan t ~from:(key 40) ~count:5 in
  Alcotest.(check (list string)) "range"
    [ key 40; key 41; key 42; key 43; key 44 ]
    (List.map fst scanned);
  Alcotest.(check (list string)) "from between keys" [ key 41 ]
    (List.map fst (Art.scan t ~from:(key 40 ^ "x") ~count:1));
  Alcotest.(check int) "past end" 0
    (List.length (Art.scan t ~from:"z" ~count:5))

let prop_art_vs_map =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> `Insert k) (int_bound 200);
          map (fun k -> `Delete k) (int_bound 200);
          map (fun k -> `Find k) (int_bound 200);
        ])
  in
  qcase ~count:100 "art behaves like Map"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) op_gen))
    (fun ops ->
      let module M = Map.Make (String) in
      let t = make_art () in
      let model = ref M.empty in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | `Insert k ->
              let k = key k in
              if Art.insert t k i <> M.find_opt k !model then ok := false;
              model := M.add k i !model
          | `Delete k ->
              let k = key k in
              if Art.delete t k <> M.mem k !model then ok := false;
              model := M.remove k !model
          | `Find k ->
              let k = key k in
              if Art.find t k <> M.find_opt k !model then ok := false)
        ops;
      !ok
      && Art.length t = M.cardinal !model
      && Art.fold t [] (fun acc k v -> (k, v) :: acc)
         = List.rev (M.bindings !model))

let prop_art_scan_matches_map =
  qcase ~count:100 "art scan matches Map range"
    QCheck.(pair (small_list (int_bound 300)) (int_bound 300))
    (fun (keys, from) ->
      let module M = Map.Make (String) in
      let t = make_art () in
      let model =
        List.fold_left
          (fun m k ->
            ignore (Art.insert t (key k) k);
            M.add (key k) k m)
          M.empty keys
      in
      let from_key = key from in
      let expect =
        M.bindings model
        |> List.filter (fun (k, _) -> String.compare k from_key >= 0)
        |> List.filteri (fun i _ -> i < 10)
      in
      Art.scan t ~from:from_key ~count:10 = expect)

let prop_art_random_strings =
  qcase ~count:100 "art with arbitrary byte-string keys"
    QCheck.(small_list (pair (string_of_size (QCheck.Gen.int_range 0 12)) small_int))
    (fun kvs ->
      let module M = Map.Make (String) in
      let t = make_art () in
      let model =
        List.fold_left
          (fun m (k, v) ->
            ignore (Art.insert t k v);
            M.add k v m)
          M.empty kvs
      in
      M.for_all (fun k v -> Art.find t k = Some v) model
      && Art.length t = M.cardinal model
      && Art.fold t [] (fun acc k v -> (k, v) :: acc)
         = List.rev (M.bindings model))

(* ---- Strhash ---- *)

let test_strhash_deterministic () =
  Alcotest.(check bool) "same input same hash" true
    (Strhash.fnv1a "hello" = Strhash.fnv1a "hello");
  Alcotest.(check bool) "different inputs differ" true
    (Strhash.fnv1a "hello" <> Strhash.fnv1a "hellp")

(* The published 64-bit FNV-1a test vectors. *)
let test_strhash_vectors () =
  List.iter
    (fun (s, h) -> Alcotest.(check int64) (Printf.sprintf "%S" s) h (Strhash.fnv1a s))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ]

let prop_strhash_bucket_matches =
  qcase "bucket = to_bucket of fnv1a"
    QCheck.(pair string (int_range 1 1000))
    (fun (s, n) -> Strhash.bucket s n = Strhash.to_bucket (Strhash.fnv1a s) n)

(* Routing hashes every key of every cluster op, so [bucket] must not
   box its hash. *)
let test_strhash_bucket_allocates_nothing () =
  let keys = Array.init 16 key in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    acc := !acc + Strhash.bucket (Array.unsafe_get keys (i land 15)) 7
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 10k calls" 0.0 words;
  Alcotest.(check bool) "buckets in range" true (!acc >= 0 && !acc <= 60_000)

let prop_strhash_bucket_range =
  qcase "bucket in range"
    QCheck.(pair string (int_range 1 64))
    (fun (s, n) ->
      let b = Strhash.to_bucket (Strhash.fnv1a s) n in
      b >= 0 && b < n)

let test_strhash_bucket_balance () =
  let buckets = Array.make 8 0 in
  for i = 0 to 79_999 do
    let b = Strhash.to_bucket (Strhash.fnv1a (key i)) 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. 80_000.0 in
      if frac < 0.10 || frac > 0.15 then
        Alcotest.failf "bucket fraction %f unbalanced" frac)
    buckets

let test_strhash_int_matches_encoding () =
  (* fnv1a_int must differ across values and be stable. *)
  Alcotest.(check bool) "stable" true (Strhash.fnv1a_int 5 = Strhash.fnv1a_int 5);
  Alcotest.(check bool) "distinct" true
    (Strhash.fnv1a_int 5 <> Strhash.fnv1a_int 6)

(* ---- Range iterators (both range indexes) ---- *)

(* [iter_range] against a sorted association list: random keys over a
   three-letter alphabet (so ART prefixes are shared, and the empty key
   occurs), a start key anywhere, past the end ("d...") included, and
   counts from 0 to past the number of keys. The list wrapper [scan]
   must return the same bindings. *)
let prop_iter_range_matches_sorted_list =
  let str = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 5)) in
  let from = QCheck.Gen.(oneof [ str; map (fun s -> "d" ^ s) str ]) in
  qcase ~count:300 "iter_range matches a sorted assoc list"
    QCheck.(
      make
        ~print:
          Print.(triple (list (pair string int)) string int)
        Gen.(triple (list_size (int_bound 60) (pair str small_nat)) from (int_bound 70)))
    (fun (bindings, from, count) ->
      (* Later bindings of a key replace earlier ones. *)
      let oracle =
        List.fold_left
          (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
          [] bindings
        |> List.sort compare
        |> List.filter (fun (k, _) -> String.compare k from >= 0)
        |> List.filteri (fun i _ -> i < count)
      in
      let collect iter =
        let acc = ref [] in
        iter ~from ~count (fun k v -> acc := (k, v) :: !acc);
        List.rev !acc
      in
      let b = make_btree ~order:4 () in
      let a = Art.create ~on_access:no_charge () in
      List.iter
        (fun (k, v) ->
          ignore (Btree.insert b k v);
          ignore (Art.insert a k v))
        bindings;
      collect (Btree.iter_range b) = oracle
      && Btree.scan b ~from ~count = oracle
      && collect (Art.iter_range a) = oracle
      && Art.scan a ~from ~count = oracle)

let () =
  Alcotest.run "index"
    [
      ( "btree",
        [
          case "empty" test_btree_empty;
          case "insert/find" test_btree_insert_find;
          case "replace" test_btree_replace;
          case "splits" test_btree_many_inserts_splits;
          case "delete" test_btree_delete;
          case "scan ordered" test_btree_scan_ordered;
          case "scan between keys" test_btree_scan_from_between_keys;
          case "scan past end" test_btree_scan_past_end;
          case "iter/fold" test_btree_iter_fold;
          case "on_access" test_btree_on_access_called;
          case "approx bytes" test_btree_approx_bytes_grows;
          prop_btree_vs_map;
          prop_btree_scan_matches_map;
        ] );
      ( "skiplist",
        [
          case "basic" test_skiplist_basic;
          case "replace" test_skiplist_replace;
          case "ordered" test_skiplist_ordered_iteration;
          case "delete" test_skiplist_delete;
          case "scan" test_skiplist_scan;
          prop_skiplist_vs_map;
        ] );
      ( "art",
        [
          case "empty" test_art_empty;
          case "insert/find" test_art_insert_find;
          case "replace/delete" test_art_replace_and_delete;
          case "prefix keys" test_art_prefix_keys_coexist;
          case "node growth" test_art_grows_through_node_classes;
          case "ordered iteration" test_art_ordered_iteration;
          case "scan" test_art_scan;
          prop_art_vs_map;
          prop_art_scan_matches_map;
          prop_art_random_strings;
        ] );
      ("range", [ prop_iter_range_matches_sorted_list ]);
      ( "bloom",
        [
          case "no false negatives" test_bloom_no_false_negatives;
          case "false positive rate" test_bloom_false_positive_rate;
          case "empty rejects" test_bloom_empty_rejects;
          case "sizing" test_bloom_sizing;
        ] );
      ( "strhash",
        [
          case "deterministic" test_strhash_deterministic;
          case "fnv-1a vectors" test_strhash_vectors;
          prop_strhash_bucket_matches;
          case "bucket allocates nothing" test_strhash_bucket_allocates_nothing;
          prop_strhash_bucket_range;
          case "balance" test_strhash_bucket_balance;
          case "int hashing" test_strhash_int_matches_encoding;
        ] );
    ]
