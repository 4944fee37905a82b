(* Tests for the workload generators: Zipfian distributions (including the
   theta >= 1 CDF path), YCSB mixes, key/value codecs. *)

open Prism_sim
open Prism_workload
open Helpers

let draw_many z n =
  let counts = Hashtbl.create 64 in
  for _ = 1 to n do
    let r = Zipfian.next_rank z in
    Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r))
  done;
  counts

let test_zipf_ranks_in_range () =
  let z = Zipfian.create ~items:100 ~theta:0.99 (Rng.create 1L) in
  for _ = 1 to 10_000 do
    let r = Zipfian.next_rank z in
    if r < 0 || r >= 100 then Alcotest.failf "rank %d out of range" r
  done

let test_zipf_skew_increases_with_theta () =
  let top_mass theta =
    let z = Zipfian.create ~items:1000 ~theta (Rng.create 2L) in
    let counts = draw_many z 50_000 in
    let top = Option.value ~default:0 (Hashtbl.find_opt counts 0) in
    float_of_int top /. 50_000.0
  in
  let m05 = top_mass 0.5 in
  let m099 = top_mass 0.99 in
  let m15 = top_mass 1.5 in
  Alcotest.(check bool) "0.5 < 0.99" true (m05 < m099);
  Alcotest.(check bool) "0.99 < 1.5" true (m099 < m15)

let test_zipf_theta_zero_uniform () =
  let z = Zipfian.create ~items:10 ~theta:0.0 (Rng.create 3L) in
  let counts = draw_many z 100_000 in
  Hashtbl.iter
    (fun _ c ->
      let frac = float_of_int c /. 100_000.0 in
      if frac < 0.08 || frac > 0.12 then
        Alcotest.failf "uniform violated: %f" frac)
    counts

let test_zipf_rank_zero_most_popular () =
  List.iter
    (fun theta ->
      let z = Zipfian.create ~items:500 ~theta (Rng.create 4L) in
      let counts = draw_many z 50_000 in
      let c0 = Option.value ~default:0 (Hashtbl.find_opt counts 0) in
      Hashtbl.iter
        (fun r c ->
          if r > 10 && c > c0 then
            Alcotest.failf "rank %d more popular than rank 0 (theta %f)" r theta)
        counts)
    [ 0.5; 0.99; 1.2; 1.5 ]

let test_zipf_scrambled_spreads () =
  let z = Zipfian.create ~items:1000 ~theta:0.99 (Rng.create 5L) in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 20_000 do
    Hashtbl.replace seen (Zipfian.next_scrambled z) ()
  done;
  (* Scrambling maps hot ranks to scattered items; the hottest items must
     not all be adjacent. *)
  let items = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
  let sorted = List.sort compare items in
  let adjacent_pairs =
    let rec count = function
      | a :: (b :: _ as rest) -> (if b = a + 1 then 1 else 0) + count rest
      | _ -> []  |> List.length
    in
    count sorted
  in
  Alcotest.(check bool) "not fully adjacent" true
    (adjacent_pairs < List.length items - 1)

let test_zipf_grow () =
  let z = Zipfian.create ~items:10 ~theta:0.99 (Rng.create 6L) in
  Zipfian.grow z ~items:100;
  Alcotest.(check int) "grown" 100 (Zipfian.items z);
  let saw_big = ref false in
  for _ = 1 to 20_000 do
    if Zipfian.next_rank z >= 10 then saw_big := true
  done;
  Alcotest.(check bool) "new ranks reachable" true !saw_big

let prop_zipf_always_in_range =
  qcase "ranks in range for any theta"
    QCheck.(pair (float_range 0.0 1.6) (int_range 2 500))
    (fun (theta, items) ->
      let z = Zipfian.create ~items ~theta (Rng.create 7L) in
      let ok = ref true in
      for _ = 1 to 200 do
        let r = Zipfian.next_rank z in
        if r < 0 || r >= items then ok := false
      done;
      !ok)

(* ---- Ycsb ---- *)

let test_mix_fractions () =
  let check_mix m total =
    let sum = m.Ycsb.reads +. m.Ycsb.updates +. m.Ycsb.inserts +. m.Ycsb.scans in
    check_approx (m.Ycsb.name ^ " fractions") sum total
  in
  List.iter (fun m -> check_mix m 1.0) Ycsb.all_ycsb;
  check_mix Ycsb.nutanix 1.0

let test_mix_op_distribution () =
  let gen =
    Ycsb.create Ycsb.ycsb_b ~records:1000 ~theta:0.99 ~value_size:64
      (Rng.create 8L)
  in
  let reads = ref 0 and updates = ref 0 and others = ref 0 in
  for _ = 1 to 20_000 do
    match Ycsb.next gen with
    | Ycsb.Read _ -> incr reads
    | Ycsb.Update _ -> incr updates
    | Ycsb.Insert _ | Ycsb.Scan _ -> incr others
  done;
  let rf = float_of_int !reads /. 20_000.0 in
  Alcotest.(check bool) "~95% reads" true (rf > 0.93 && rf < 0.97);
  Alcotest.(check int) "no other ops in B" 0 !others

let test_mix_e_scans () =
  let gen =
    Ycsb.create Ycsb.ycsb_e ~records:1000 ~theta:0.99 ~value_size:64
      (Rng.create 9L)
  in
  let scans = ref 0 and lens = ref 0 in
  for _ = 1 to 10_000 do
    match Ycsb.next gen with
    | Ycsb.Scan (_, len) ->
        incr scans;
        lens := !lens + len
    | _ -> ()
  done;
  let sf = float_of_int !scans /. 10_000.0 in
  Alcotest.(check bool) "~95% scans" true (sf > 0.92 && sf < 0.98);
  let mean_len = float_of_int !lens /. float_of_int !scans in
  Alcotest.(check bool) "mean scan length ~50" true
    (mean_len > 40.0 && mean_len < 60.0)

let test_latest_distribution_prefers_recent () =
  let gen =
    Ycsb.create
      (Option.get (Ycsb.mix_of_name "d"))
      ~records:10_000 ~theta:0.99 ~value_size:64
      (Rng.create 10L)
  in
  let recent = ref 0 and total = ref 0 in
  for _ = 1 to 10_000 do
    match Ycsb.next gen with
    | Ycsb.Read k ->
        incr total;
        (* key_of i: extract ordinal. *)
        let ord = int_of_string (String.sub k 4 12) in
        if ord >= 9_000 then incr recent
    | _ -> ()
  done;
  let frac = float_of_int !recent /. float_of_int !total in
  Alcotest.(check bool) "most reads hit the newest 10%" true (frac > 0.5)

let test_insert_extends_keyspace () =
  let mix = { Ycsb.ycsb_a with updates = 0.0; inserts = 0.5; reads = 0.5 } in
  let gen = Ycsb.create mix ~records:100 ~theta:0.99 ~value_size:64 (Rng.create 11L) in
  let before = Ycsb.records gen in
  let inserted = ref [] in
  for _ = 1 to 100 do
    match Ycsb.next gen with
    | Ycsb.Insert (k, _) -> inserted := k :: !inserted
    | _ -> ()
  done;
  Alcotest.(check bool) "records grew" true (Ycsb.records gen > before);
  (* Inserted keys are fresh ordinals. *)
  List.iter
    (fun k ->
      let ord = int_of_string (String.sub k 4 12) in
      if ord < 100 then Alcotest.failf "insert reused ordinal %d" ord)
    !inserted

let test_value_roundtrip () =
  let v = Ycsb.value_for ~size:100 ~key:"user42" ~version:7 in
  Alcotest.(check int) "size" 100 (Bytes.length v);
  Alcotest.(check (option int)) "version recoverable" (Some 7)
    (Ycsb.version_of v)

let test_value_distinct_by_version () =
  let a = Ycsb.value_for ~size:64 ~key:"k" ~version:1 in
  let b = Ycsb.value_for ~size:64 ~key:"k" ~version:2 in
  Alcotest.(check bool) "distinct" false (Bytes.equal a b)

let test_key_format_sortable () =
  Alcotest.(check bool) "zero padded sorts numerically" true
    (String.compare (Ycsb.key_of 9) (Ycsb.key_of 10) < 0)

let test_load_order_permutation () =
  let order = Ycsb.load_order ~records:500 (Rng.create 12L) in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true
    (Array.to_list sorted = List.init 500 Fun.id);
  Alcotest.(check bool) "shuffled" true
    (Array.to_list order <> List.init 500 Fun.id)


(* ---- alias-method sampler (theta >= 1) ---- *)

let counts_of_fn f ~items ~draws =
  let counts = Array.make items 0 in
  for _ = 1 to draws do
    let r = f () in
    counts.(r) <- counts.(r) + 1
  done;
  counts

(* Exact Zipf pmf expected counts. *)
let chi2_vs_pmf ~theta counts ~draws =
  let items = Array.length counts in
  let w =
    Array.init items (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta)
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  let stat = ref 0.0 in
  Array.iteri
    (fun i c ->
      let e = w.(i) /. total *. float_of_int draws in
      let d = float_of_int c -. e in
      stat := !stat +. (d *. d /. e))
    counts;
  !stat

(* The CDF-inversion sampler the alias table replaced, kept here as the
   reference implementation. *)
let cdf_reference_sampler ~items ~theta rng =
  let cdf = Array.make items 0.0 in
  let acc = ref 0.0 in
  for i = 0 to items - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to items - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  fun () ->
    let u = Rng.float rng in
    let lo = ref 0 and hi = ref (items - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* The alias path is statistically exact: chi-squared against the exact
   pmf sits at its degrees of freedom (63); 130 is a > 5 sigma bound. *)
let test_zipf_alias_exact () =
  let items = 64 and draws = 200_000 in
  let z = Zipfian.create ~items ~theta:1.2 (Rng.create 21L) in
  let counts = counts_of_fn (fun () -> Zipfian.next_rank z) ~items ~draws in
  let stat = chi2_vs_pmf ~theta:1.2 counts ~draws in
  if stat > 130.0 then Alcotest.failf "alias chi2 %.1f exceeds 130" stat

(* grow rebuilds the alias table for the wider domain; the rebuilt table
   must stay exact (df = 255 here, 99.9th percentile ~ 313). *)
let test_zipf_alias_grow_exact () =
  let z = Zipfian.create ~items:64 ~theta:1.2 (Rng.create 22L) in
  for _ = 1 to 1_000 do
    ignore (Zipfian.next_rank z)
  done;
  Zipfian.grow z ~items:256;
  Alcotest.(check int) "items" 256 (Zipfian.items z);
  let draws = 200_000 in
  let counts = counts_of_fn (fun () -> Zipfian.next_rank z) ~items:256 ~draws in
  let grew = ref false in
  Array.iteri (fun i c -> if i >= 64 && c > 0 then grew := true) counts;
  Alcotest.(check bool) "ranks beyond old domain drawn" true !grew;
  let stat = chi2_vs_pmf ~theta:1.2 counts ~draws in
  if stat > 330.0 then Alcotest.failf "post-grow chi2 %.1f exceeds 330" stat

(* Two-sample chi-squared of next_rank against the CDF reference, per the
   paper's sweep points. At 1.2 both samplers are exact (stat ~ df = 63);
   at 0.99 next_rank uses the YCSB closed form, whose known approximation
   bias puts the stat near 250 at this sample size - the bound catches a
   broken sampler (orders of magnitude larger), not the bias. *)
let test_zipf_matches_cdf_reference () =
  let items = 64 and draws = 200_000 in
  List.iter
    (fun (theta, bound) ->
      let z = Zipfian.create ~items ~theta (Rng.create 23L) in
      let a = counts_of_fn (fun () -> Zipfian.next_rank z) ~items ~draws in
      let b =
        counts_of_fn (cdf_reference_sampler ~items ~theta (Rng.create 24L))
          ~items ~draws
      in
      let stat = ref 0.0 in
      Array.iteri
        (fun i ca ->
          let s = ca + b.(i) in
          if s > 0 then begin
            let d = float_of_int (ca - b.(i)) in
            stat := !stat +. (d *. d /. float_of_int s)
          end)
        a;
      if !stat > bound then
        Alcotest.failf "theta %.2f: two-sample chi2 %.1f exceeds %.0f" theta
          !stat bound)
    [ (0.99, 600.0); (1.2, 150.0) ]


let () =
  Alcotest.run "workload"
    [
      ( "zipfian",
        [
          case "ranks in range" test_zipf_ranks_in_range;
          case "skew grows with theta" test_zipf_skew_increases_with_theta;
          case "theta 0 uniform" test_zipf_theta_zero_uniform;
          case "rank 0 hottest" test_zipf_rank_zero_most_popular;
          case "scrambled spreads" test_zipf_scrambled_spreads;
          case "grow" test_zipf_grow;
          case "alias exact at theta 1.2" test_zipf_alias_exact;
          case "alias exact after grow" test_zipf_alias_grow_exact;
          case "matches CDF reference" test_zipf_matches_cdf_reference;
          prop_zipf_always_in_range;
        ] );
      ( "ycsb",
        [
          case "mix fractions" test_mix_fractions;
          case "B distribution" test_mix_op_distribution;
          case "E scans" test_mix_e_scans;
          case "latest prefers recent" test_latest_distribution_prefers_recent;
          case "insert extends" test_insert_extends_keyspace;
          case "value roundtrip" test_value_roundtrip;
          case "values distinct" test_value_distinct_by_version;
          case "key sortable" test_key_format_sortable;
          case "load order" test_load_order_permutation;
        ] );
    ]
