(* Unit and property tests for the simulation kernel: event heap, engine
   scheduling semantics, synchronization primitives, RNG, histogram,
   counters and timelines. *)

open Prism_sim
open Helpers

(* ---- Heap ---- *)

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h ~time:3.0 ~seq:0 "c";
  Heap.push h ~time:1.0 ~seq:1 "a";
  Heap.push h ~time:2.0 ~seq:2 "b";
  let pop () =
    match Heap.pop_min h with Some (_, _, v) -> v | None -> "?"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:1.0 ~seq:i i
  done;
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (_, _, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "FIFO at equal times"
    (List.init 10 (fun i -> i))
    (List.rev !order)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop_min h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek_time h = None)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~time:5.0 ~seq:0 5;
  Heap.push h ~time:1.0 ~seq:1 1;
  (match Heap.pop_min h with
  | Some (t, _, v) ->
      Alcotest.(check int) "min first" 1 v;
      Alcotest.(check (float 0.0)) "time" 1.0 t
  | None -> Alcotest.fail "expected entry");
  Heap.push h ~time:0.5 ~seq:2 0;
  match Heap.pop_min h with
  | Some (_, _, v) -> Alcotest.(check int) "later smaller" 0 v
  | None -> Alcotest.fail "expected entry"

let prop_heap_sorted =
  qcase "heap pops sorted" QCheck.(list (float_range 0.0 1000.0)) (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:t ~seq:i t) times;
      let rec drain acc =
        match Heap.pop_min h with
        | Some (t, _, _) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare times)

(* ---- Engine ---- *)

let test_engine_delay_advances_time () =
  let t =
    in_sim (fun e ->
        Engine.delay 1.5;
        Engine.now e)
  in
  Alcotest.(check (float 1e-12)) "time" 1.5 t

let test_engine_two_processes_interleave () =
  let log = ref [] in
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      log := `A0 :: !log;
      Engine.delay 2.0;
      log := `A2 :: !log);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      log := `B1 :: !log);
  ignore (Engine.run e);
  Alcotest.(check bool) "interleaving" true (List.rev !log = [ `A0; `B1; `A2 ])

let test_engine_run_until () =
  let e = Engine.create () in
  let reached = ref false in
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      reached := true);
  let t = Engine.run ~until:5.0 e in
  Alcotest.(check bool) "not reached" false !reached;
  Alcotest.(check (float 1e-9)) "stopped at limit" 5.0 t;
  ignore (Engine.run e);
  Alcotest.(check bool) "reached after resume" true !reached

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 100 do
        incr count;
        if !count = 10 then Engine.stop e;
        Engine.delay 1.0
      done);
  ignore (Engine.run e);
  (* stop takes effect at the next scheduling point: the loop body runs to
     its delay, which never resumes. *)
  Alcotest.(check int) "stopped early" 10 !count

let test_engine_negative_delay_rejected () =
  in_sim (fun _ ->
      Alcotest.check_raises "negative delay"
        (Invalid_argument "Engine.delay: negative delay") (fun () ->
          Engine.delay (-1.0)))

let test_engine_schedule_callback () =
  let e = Engine.create () in
  let fired_at = ref nan in
  Engine.schedule e ~after:3.0 (fun () -> fired_at := Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check (float 1e-12)) "callback time" 3.0 !fired_at

let test_engine_same_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Engine.spawn e (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "spawn order preserved" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

let test_engine_yield_reorders () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      log := "a1" :: !log;
      Engine.yield ();
      log := "a2" :: !log);
  Engine.spawn e (fun () -> log := "b" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_engine_clear_pending () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      fired := true);
  Engine.clear_pending e;
  ignore (Engine.run e);
  Alcotest.(check bool) "event dropped" false !fired

let test_engine_suspend_resume () =
  let resumer = ref (fun () -> ()) in
  let e = Engine.create () in
  let state = ref "init" in
  Engine.spawn e (fun () ->
      Engine.suspend (fun resume -> resumer := resume);
      state := "resumed");
  Engine.spawn e (fun () ->
      Engine.delay 5.0;
      !resumer ());
  ignore (Engine.run e);
  Alcotest.(check string) "resumed" "resumed" !state

let test_engine_double_resume_rejected () =
  let e = Engine.create () in
  let resumer = ref (fun () -> ()) in
  Engine.spawn e (fun () -> Engine.suspend (fun resume -> resumer := resume));
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      !resumer ());
  ignore (Engine.run e);
  Alcotest.check_raises "double resume"
    (Invalid_argument "Engine: resume called twice") (fun () -> !resumer ())

let test_engine_events_counted () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Engine.delay 1.0);
  ignore (Engine.run e);
  Alcotest.(check bool) "some events" true (Engine.events_executed e >= 3)

let test_engine_nested_calls_can_delay () =
  (* delay/suspend work from functions called by the process, without
     threading the engine. *)
  let helper () = Engine.delay 1.0 in
  let t =
    in_sim (fun e ->
        helper ();
        helper ();
        Engine.now e)
  in
  Alcotest.(check (float 1e-12)) "nested delays" 2.0 t

(* ---- Ivar ---- *)

let test_ivar_fill_then_read () =
  in_sim (fun _ ->
      let iv = Sync.Ivar.create () in
      Sync.Ivar.fill iv 7;
      Alcotest.(check int) "read filled" 7 (Sync.Ivar.read iv))

let test_ivar_blocks_until_fill () =
  let e = Engine.create () in
  let iv = Sync.Ivar.create () in
  let got_at = ref nan in
  Engine.spawn e (fun () ->
      ignore (Sync.Ivar.read iv);
      got_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.delay 2.0;
      Sync.Ivar.fill iv ());
  ignore (Engine.run e);
  Alcotest.(check (float 1e-12)) "woken at fill time" 2.0 !got_at

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Sync.Ivar.create () in
  let woken = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn e (fun () ->
        ignore (Sync.Ivar.read iv);
        incr woken)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Sync.Ivar.fill iv 42);
  ignore (Engine.run e);
  Alcotest.(check int) "all woken" 5 !woken

let test_ivar_double_fill_rejected () =
  let iv = Sync.Ivar.create () in
  Sync.Ivar.fill iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Sync.Ivar.fill iv 2)

let test_ivar_peek () =
  let iv = Sync.Ivar.create () in
  Alcotest.(check (option int)) "empty" None (Sync.Ivar.peek iv);
  Sync.Ivar.fill iv 3;
  Alcotest.(check (option int)) "full" (Some 3) (Sync.Ivar.peek iv);
  Alcotest.(check bool) "is_filled" true (Sync.Ivar.is_filled iv)

let test_ivar_timeout_expires () =
  let e = Engine.create () in
  let iv : int Sync.Ivar.t = Sync.Ivar.create () in
  let out = ref (Some 0) in
  let woke_at = ref nan in
  Engine.spawn e (fun () ->
      out := Sync.Ivar.read_with_timeout iv 2.0;
      woke_at := Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check (option int)) "timed out" None !out;
  Alcotest.(check (float 1e-12)) "woke at deadline" 2.0 !woke_at

let test_ivar_timeout_beaten_by_fill () =
  let e = Engine.create () in
  let iv = Sync.Ivar.create () in
  let out = ref None in
  let woke_at = ref nan in
  Engine.spawn e (fun () ->
      out := Sync.Ivar.read_with_timeout iv 10.0;
      woke_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Sync.Ivar.fill iv 9);
  ignore (Engine.run e);
  Alcotest.(check (option int)) "value" (Some 9) !out;
  Alcotest.(check (float 1e-12)) "woke early" 1.0 !woke_at

(* ---- Mailbox ---- *)

let test_mailbox_fifo () =
  in_sim (fun _ ->
      let mb = Sync.Mailbox.create () in
      Sync.Mailbox.send mb 1;
      Sync.Mailbox.send mb 2;
      Sync.Mailbox.send mb 3;
      let a = Sync.Mailbox.recv mb in
      let b = Sync.Mailbox.recv mb in
      let c = Sync.Mailbox.recv mb in
      Alcotest.(check (list int)) "order" [ 1; 2; 3 ] [ a; b; c ])

let test_mailbox_blocking_recv () =
  let e = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref 0 in
  Engine.spawn e (fun () -> got := Sync.Mailbox.recv mb);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Sync.Mailbox.send mb 5);
  ignore (Engine.run e);
  Alcotest.(check int) "received" 5 !got

let test_mailbox_competing_receivers () =
  let e = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref [] in
  for _ = 1 to 2 do
    Engine.spawn e (fun () ->
        let v = Sync.Mailbox.recv mb in
        got := v :: !got)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Sync.Mailbox.send mb 1;
      Sync.Mailbox.send mb 2);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "both delivered exactly once" [ 1; 2 ]
    (List.sort compare !got)

let test_mailbox_try_recv () =
  let mb = Sync.Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Sync.Mailbox.try_recv mb);
  Sync.Mailbox.send mb 1;
  Alcotest.(check (option int)) "nonempty" (Some 1) (Sync.Mailbox.try_recv mb);
  Alcotest.(check bool) "is_empty" true (Sync.Mailbox.is_empty mb)

(* ---- Semaphore / Mutex / Latch ---- *)

let test_semaphore_limits_concurrency () =
  let e = Engine.create () in
  let sem = Sync.Semaphore.create 2 in
  let active = ref 0 in
  let peak = ref 0 in
  for _ = 1 to 6 do
    Engine.spawn e (fun () ->
        Sync.Semaphore.acquire sem;
        incr active;
        if !active > !peak then peak := !active;
        Engine.delay 1.0;
        decr active;
        Sync.Semaphore.release sem)
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "max concurrency" 2 !peak

let test_semaphore_try_acquire () =
  let sem = Sync.Semaphore.create 1 in
  Alcotest.(check bool) "first" true (Sync.Semaphore.try_acquire sem);
  Alcotest.(check bool) "second" false (Sync.Semaphore.try_acquire sem);
  Sync.Semaphore.release sem;
  Alcotest.(check bool) "after release" true (Sync.Semaphore.try_acquire sem)

let test_mutex_exclusion () =
  let e = Engine.create () in
  let m = Sync.Mutex.create () in
  let inside = ref false in
  let violations = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Sync.Mutex.with_lock m (fun () ->
            if !inside then incr violations;
            inside := true;
            Engine.delay 1.0;
            inside := false))
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "no violations" 0 !violations

let test_mutex_releases_on_exception () =
  in_sim (fun _ ->
      let m = Sync.Mutex.create () in
      (try Sync.Mutex.with_lock m (fun () -> failwith "boom")
       with Failure _ -> ());
      (* Lock must be free again. *)
      let entered = ref false in
      Sync.Mutex.with_lock m (fun () -> entered := true);
      Alcotest.(check bool) "reacquired" true !entered)

let test_latch () =
  let e = Engine.create () in
  let latch = Sync.Latch.create 3 in
  let released_at = ref nan in
  Engine.spawn e (fun () ->
      Sync.Latch.wait latch;
      released_at := Engine.now e);
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        Engine.delay (float_of_int i);
        Sync.Latch.arrive latch)
  done;
  ignore (Engine.run e);
  Alcotest.(check (float 1e-12)) "released at last arrival" 3.0 !released_at

let test_latch_zero () =
  in_sim (fun _ ->
      let latch = Sync.Latch.create 0 in
      Sync.Latch.wait latch (* must not block *))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  let xs = List.init 100 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 100 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "same stream" true (xs = ys)

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let child = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 50 (fun _ -> Rng.next_int64 child) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let prop_rng_float_range =
  qcase "float in [0,1)" QCheck.(int_bound 10000) (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.float rng in
      v >= 0.0 && v < 1.0)

let prop_rng_int_bound =
  qcase "int within bound"
    QCheck.(pair (int_bound 1000) (int_range 1 500))
    (fun (seed, bound) ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_uniformity_rough () =
  let rng = Rng.create 7L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.08 || frac > 0.12 then
        Alcotest.failf "bucket fraction %f out of tolerance" frac)
    buckets

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3L in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is permutation" true
    (Array.to_list sorted = List.init 100 (fun i -> i));
  Alcotest.(check bool) "actually shuffled" true
    (Array.to_list a <> List.init 100 (fun i -> i))

let test_rng_exponential_mean () =
  let rng = Rng.create 11L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  if mean < 4.8 || mean > 5.2 then Alcotest.failf "mean %f not ~5.0" mean

(* ---- Bits ---- *)

let test_bits_msb () =
  Alcotest.(check int) "msb 1" 0 (Bits.msb 1);
  Alcotest.(check int) "msb 2" 1 (Bits.msb 2);
  Alcotest.(check int) "msb 3" 1 (Bits.msb 3);
  Alcotest.(check int) "msb 64" 6 (Bits.msb 64);
  Alcotest.(check int) "msb max_int" 61 (Bits.msb (max_int / 2 + 1))

let prop_bits_msb =
  qcase "msb bounds value" QCheck.(int_range 1 max_int) (fun v ->
      let m = Bits.msb v in
      v >= 1 lsl m && (m >= 61 || v < 1 lsl (m + 1)))

let test_bits_helpers () =
  Alcotest.(check bool) "pow2 64" true (Bits.is_power_of_two 64);
  Alcotest.(check bool) "pow2 63" false (Bits.is_power_of_two 63);
  Alcotest.(check int) "ceil_div" 3 (Bits.ceil_div 5 2);
  Alcotest.(check int) "round_up" 128 (Bits.round_up 100 64);
  Alcotest.(check int) "round_up exact" 128 (Bits.round_up 128 64)

(* ---- Hist ---- *)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check int) "p99" 0 (Hist.percentile h 99.0);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Hist.mean h)

let test_hist_exact_small_values () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "median" 3 (Hist.median h);
  Alcotest.(check int) "min" 1 (Hist.min_value h);
  Alcotest.(check int) "max" 5 (Hist.max_value h);
  check_approx "mean" (Hist.mean h) 3.0

let test_hist_percentile_monotone () =
  let h = Hist.create () in
  let rng = Rng.create 5L in
  for _ = 1 to 10_000 do
    Hist.record h (Rng.int rng 1_000_000)
  done;
  let last = ref 0 in
  List.iter
    (fun p ->
      let v = Hist.percentile h p in
      if v < !last then Alcotest.failf "percentile not monotone at %f" p;
      last := v)
    [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ]

let test_hist_relative_error () =
  let h = Hist.create () in
  Hist.record h 1_000_000;
  let p = Hist.percentile h 100.0 in
  let err = Float.abs (float_of_int p -. 1e6) /. 1e6 in
  if err > 0.04 then Alcotest.failf "bucket error %f too large" err

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.record a) [ 1; 2; 3 ];
  List.iter (Hist.record b) [ 10; 20; 30 ];
  Hist.merge ~into:a b;
  Alcotest.(check int) "count" 6 (Hist.count a);
  Alcotest.(check int) "max" 30 (Hist.max_value a);
  Alcotest.(check int) "min" 1 (Hist.min_value a)

let test_hist_record_span () =
  let h = Hist.create () in
  Hist.record_span h 1e-6;
  Alcotest.(check bool) "about 1000 ns" true
    (Hist.max_value h >= 990 && Hist.max_value h <= 1010)

let test_hist_negative_clamped () =
  let h = Hist.create () in
  Hist.record h (-5);
  Alcotest.(check int) "clamped to 0" 0 (Hist.max_value h)

let prop_hist_percentile_bounds =
  qcase "percentiles within [min,max]"
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 1_000_000))
    (fun vs ->
      let h = Hist.create () in
      List.iter (Hist.record h) vs;
      let p50 = Hist.percentile h 50.0 in
      p50 >= Hist.min_value h && p50 <= Hist.max_value h)

let test_hist_quantile_boundaries () =
  let h = Hist.create () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Hist.quantile h 99.0);
  Hist.record h 777;
  (* One sample: every quantile is that sample (min/max clamping). *)
  List.iter
    (fun p -> Alcotest.(check (float 0.0)) "single" 777.0 (Hist.quantile h p))
    [ -5.0; 0.0; 50.0; 99.9; 100.0; 150.0 ]

let test_hist_quantile_interpolates () =
  (* Uniform 1..1000: the interpolated quantile should track p * 10
     closely, much tighter than one bucket width. *)
  let h = Hist.create () in
  for v = 1 to 1000 do
    Hist.record h v
  done;
  List.iter
    (fun p ->
      let got = Hist.quantile h p in
      let want = p *. 10.0 in
      if Float.abs (got -. want) > 0.02 *. 1000.0 then
        Alcotest.failf "quantile %.1f: got %.1f, want ~%.1f" p got want)
    [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0 ]

let test_hist_quantile_monotone () =
  let h = Hist.create () in
  let rng = Rng.create 11L in
  for _ = 1 to 20_000 do
    Hist.record h (Rng.int rng 10_000_000)
  done;
  let last = ref neg_infinity in
  List.iter
    (fun p ->
      let v = Hist.quantile h p in
      if v < !last then Alcotest.failf "quantile not monotone at %f" p;
      last := v)
    [ 0.0; 1.0; 10.0; 50.0; 90.0; 99.0; 99.9; 99.99; 100.0 ]

let test_hist_quantile_tail_resolution () =
  (* 9_999 fast ops at ~100ns and one 1ms outlier: p99 must stay at the
     body while p99.99 reaches the outlier — the tail is not a
     quantization artifact of coarse buckets. *)
  let h = Hist.create () in
  for _ = 1 to 999 do
    Hist.record h 100
  done;
  Hist.record h 1_000_000;
  (* Rank 990 of 1000 is still in the body; rank 999.5 crosses into the
     outlier's bucket. *)
  let p99 = Hist.quantile h 99.0 in
  let p9995 = Hist.quantile h 99.95 in
  if p99 > 150.0 then Alcotest.failf "p99 %.1f polluted by outlier" p99;
  if p9995 < 0.9e6 then Alcotest.failf "p99.95 %.1f misses outlier" p9995

let test_hist_fine_relative_error () =
  (* 7 sub-bucket bits: worst-case bucket width is ~1/128 of the value. *)
  let h = Hist.create () in
  Hist.record h 1_000_000;
  let err = Float.abs (Hist.quantile h 100.0 -. 1e6) /. 1e6 in
  if err > 0.01 then Alcotest.failf "fine bucket error %f too large" err;
  check_approx "us_of_ns" (Hist.us_of_ns 1500.0) 1.5

let prop_hist_quantile_bounds =
  qcase "quantiles within [min,max]"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 200) (int_bound 1_000_000))
        (float_range 0.0 100.0))
    (fun (vs, p) ->
      let h = Hist.create () in
      List.iter (Hist.record h) vs;
      let q = Hist.quantile h p in
      q >= float_of_int (Hist.min_value h)
      && q <= float_of_int (Hist.max_value h))

(* ---- Metric ---- *)

let test_counter () =
  let c = Metric.Counter.create () in
  Metric.Counter.incr c;
  Metric.Counter.add c 5;
  Alcotest.(check int) "value" 6 (Metric.Counter.value c);
  Metric.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Metric.Counter.value c)

let test_timeline () =
  let tl = Metric.Timeline.create ~interval:1.0 in
  Metric.Timeline.tick tl ~now:0.5;
  Metric.Timeline.tick tl ~now:0.7;
  Metric.Timeline.tick tl ~now:2.1;
  Metric.Timeline.mark tl ~now:2.5 "gc";
  let windows = Metric.Timeline.windows tl in
  Alcotest.(check int) "two windows" 2 (List.length windows);
  (match windows with
  | [ (t0, c0, m0); (t2, c2, m2) ] ->
      Alcotest.(check (float 1e-9)) "w0 start" 0.0 t0;
      Alcotest.(check int) "w0 count" 2 c0;
      Alcotest.(check (list string)) "w0 marks" [] m0;
      Alcotest.(check (float 1e-9)) "w2 start" 2.0 t2;
      Alcotest.(check int) "w2 count" 1 c2;
      Alcotest.(check (list string)) "w2 marks" [ "gc" ] m2
  | _ -> Alcotest.fail "unexpected windows")

let test_timeline_mark_before_tick () =
  (* A mark in a window that never saw a tick still creates the window,
     with count 0 and the labels in arrival order. *)
  let tl = Metric.Timeline.create ~interval:1.0 in
  Metric.Timeline.mark tl ~now:0.2 "first";
  Metric.Timeline.mark tl ~now:0.8 "second";
  (match Metric.Timeline.windows tl with
  | [ (t0, c0, m0) ] ->
      Alcotest.(check (float 1e-9)) "window start" 0.0 t0;
      Alcotest.(check int) "no ticks" 0 c0;
      Alcotest.(check (list string)) "marks in order" [ "first"; "second" ] m0
  | _ -> Alcotest.fail "expected exactly one window");
  Alcotest.(check int) "total ignores marks" 0 (Metric.Timeline.total tl)

let test_timeline_total_and_reset () =
  let tl = Metric.Timeline.create ~interval:0.5 in
  Metric.Timeline.tick tl ~now:0.1;
  Metric.Timeline.tick tl ~now:0.6;
  Metric.Timeline.tick tl ~now:7.9;
  Alcotest.(check int) "total sums every window" 3 (Metric.Timeline.total tl);
  Alcotest.(check int) "sparse windows only" 3
    (List.length (Metric.Timeline.windows tl));
  Metric.Timeline.reset tl;
  Alcotest.(check int) "reset empties" 0 (Metric.Timeline.total tl);
  Alcotest.(check int) "no windows" 0 (List.length (Metric.Timeline.windows tl))

(* ---- Stats registry ---- *)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_stats_counter_shared () =
  let s = Stats.create () in
  let a = Stats.counter s "x.calls" in
  let b = Stats.counter s "x.calls" in
  Metric.Counter.incr a;
  Metric.Counter.add b 2;
  Alcotest.(check int) "one shared counter" 3 (Stats.get_int s "x.calls");
  Alcotest.check_raises "type clash rejected"
    (Invalid_argument "Stats.histogram: \"x.calls\" registered as a non-histogram")
    (fun () -> ignore (Stats.histogram s "x.calls"))

let test_stats_adopted_counter () =
  let s = Stats.create () in
  let c = Metric.Counter.create () in
  Metric.Counter.add c 7;
  Stats.register_counter s "sub.ops" c;
  Alcotest.(check int) "adopted by reference" 7 (Stats.get_int s "sub.ops");
  Metric.Counter.incr c;
  Alcotest.(check int) "stays live" 8 (Stats.get_int s "sub.ops")

let test_stats_sanitize () =
  Alcotest.(check string) "rocksdb" "rocksdb-nvm" (Stats.sanitize "RocksDB-NVM");
  Alcotest.(check string) "slmdb" "slm-db" (Stats.sanitize "SLM-DB");
  Alcotest.(check string) "spaces collapse" "kvell-sync"
    (Stats.sanitize "KVell (sync)");
  Alcotest.(check string) "empty" "unnamed" (Stats.sanitize "  ")

let test_stats_snapshot_diff_reset () =
  let s = Stats.create () in
  let c = Stats.counter s "c" in
  let g = ref 5 in
  Stats.gauge_int s "g" (fun () -> !g);
  let h = Stats.histogram s "h" in
  Metric.Counter.add c 10;
  Hist.record h 100;
  Hist.record h 200;
  let before = Stats.snapshot s in
  Metric.Counter.add c 32;
  g := 9;
  Hist.record h 300;
  let after = Stats.snapshot s in
  let d = Stats.diff ~before ~after in
  (match List.assoc "c" d with
  | Stats.Int n -> Alcotest.(check int) "counter delta" 32 n
  | _ -> Alcotest.fail "counter should diff to Int");
  (match List.assoc "g" d with
  | Stats.Int n -> Alcotest.(check int) "gauge delta" 4 n
  | _ -> Alcotest.fail "gauge should diff to Int");
  (match List.assoc "h" d with
  | Stats.Dist { count; max; _ } ->
      Alcotest.(check int) "hist count delta" 1 count;
      Alcotest.(check int) "digest is cumulative" 300 max
  | _ -> Alcotest.fail "histogram should diff to Dist");
  Stats.reset s;
  Alcotest.(check int) "counter reset" 0 (Stats.get_int s "c");
  Alcotest.(check int) "histogram reset" 0 (Stats.get_int s "h");
  Alcotest.(check int) "gauge untouched by reset" 9 (Stats.get_int s "g")

let test_stats_json () =
  let s = Stats.create () in
  Metric.Counter.add (Stats.counter s "a.count") 3;
  Stats.gauge_float s "a.ratio" (fun () -> 0.5);
  Hist.record (Stats.histogram s "a.lat") 42;
  let json = Stats.to_json s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (contains_substring json needle))
    [ {|"a.count":3|}; {|"a.ratio":0.5|}; {|"count":1|} ]

(* ---- Span tracer ---- *)

let test_span_disabled_noop () =
  let s = Span.create () in
  let h = Span.begin_ s ~name:"x" ~tid:0 ~now:0.0 in
  Span.end_ s h ~now:1.0;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.totals s))

let test_span_self_time () =
  let s = Span.create () in
  Span.set_enabled s true;
  let outer = Span.begin_ s ~name:"outer" ~tid:1 ~now:0.0 in
  let inner = Span.begin_ s ~name:"inner" ~tid:1 ~now:2.0 in
  Span.end_ s inner ~now:6.0;
  Span.end_ s outer ~now:10.0;
  (match Span.totals s with
  | [ ("inner", 1, ti, si); ("outer", 1, t_o, s_o) ] ->
      Alcotest.(check (float 1e-9)) "inner total" 4.0 ti;
      Alcotest.(check (float 1e-9)) "inner self" 4.0 si;
      Alcotest.(check (float 1e-9)) "outer total" 10.0 t_o;
      Alcotest.(check (float 1e-9)) "outer self excludes child" 6.0 s_o
  | _ -> Alcotest.fail "expected inner and outer totals");
  Span.reset s;
  Alcotest.(check int) "reset clears" 0 (List.length (Span.totals s))

let test_span_chrome_export () =
  let s = Span.create () in
  Span.set_enabled s true;
  Span.set_keep_events s true;
  let h = Span.begin_ s ~name:"op \"q\"" ~tid:3 ~now:1e-6 in
  Span.end_ s h ~now:3e-6;
  let json = Span.to_chrome_json s in
  let contains needle = contains_substring json needle in
  Alcotest.(check bool) "traceEvents array" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "escaped name" true (contains {|op \"q\"|});
  Alcotest.(check bool) "tid kept" true (contains {|"tid":3|})

(* ---- JSON printer ---- *)

(* Exact registry and Chrome-trace bytes: the encodings CI scripts and
   trace viewers parse must not move. *)
let test_json_golden_registry_and_trace () =
  let s = Stats.create () in
  Metric.Counter.add (Stats.counter s "a.count") 3;
  Stats.gauge_float s "a.ratio" (fun () -> 0.5);
  Stats.gauge_float s "a.big" (fun () -> 1.0 /. 3.0);
  Hist.record (Stats.histogram s "a.lat") 42;
  let tl = Stats.timeline s "a.tl" ~interval:1e-3 in
  Metric.Timeline.tick tl ~now:0.0005;
  Metric.Timeline.tick tl ~now:0.0025;
  Alcotest.(check string) "registry"
    {|{"a.big":0.333333,"a.count":3,"a.lat":{"count":1,"mean":42,"p50":42,"p99":42,"max":42},"a.ratio":0.5,"a.tl":[[0,1],[0.002,1]]}|}
    (Stats.to_json s);
  let sp = Span.create () in
  Span.set_enabled sp true;
  Span.set_keep_events sp true;
  let h = Span.begin_ sp ~name:"op \"q\"" ~tid:3 ~now:1e-6 in
  Span.end_ sp h ~now:3e-6;
  let h = Span.begin_ sp ~name:"b" ~tid:1 ~now:4e-6 in
  Span.end_ sp h ~now:4.5e-6;
  Alcotest.(check string) "chrome trace"
    {|{"traceEvents":[{"name":"op \"q\"","ph":"X","pid":0,"tid":3,"ts":1.000,"dur":2.000},{"name":"b","ph":"X","pid":0,"tid":1,"ts":4.000,"dur":0.500}]}|}
    (Span.to_chrome_json sp)

(* The pretty layout every bench report (knee, scenario, tier, cluster)
   shares: objects and arrays one item per line, rows on one line,
   empty arrays still closed on their own line. *)
let test_json_pretty_layout () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "t-v1");
        ("seed", Json.int64 12648430L);
        ( "runs",
          Json.Arr
            [
              Json.Obj
                [
                  ("name", Json.Str "a\\b\"c\n");
                  ( "points",
                    Json.Arr
                      [ Json.Row [ ("x", Json.fixed 4 0.6); ("ok", Json.Bool true) ] ]
                  );
                  ("cell", Json.Row [ ("waf", Json.fixed 6 1.5); ("n", Json.Int 7) ]);
                  ("none", Json.Arr []);
                ];
            ] );
        ("raw", Json.Raw "{\"k\":1}");
      ]
  in
  Alcotest.(check string) "pretty"
    "{\n\
    \  \"schema\": \"t-v1\",\n\
    \  \"seed\": 12648430,\n\
    \  \"runs\": [\n\
    \    {\n\
    \      \"name\": \"a\\\\b\\\"c\\n\",\n\
    \      \"points\": [\n\
    \        { \"x\": 0.6000, \"ok\": true }\n\
    \      ],\n\
    \      \"cell\": { \"waf\": 1.500000, \"n\": 7 },\n\
    \      \"none\": [\n\
    \      ]\n\
    \    }\n\
    \  ],\n\
    \  \"raw\": {\"k\":1}\n\
     }\n"
    (Json.to_string doc);
  Alcotest.(check string) "compact"
    {|{"schema":"t-v1","seed":12648430,"runs":[{"name":"a\\b\"c\n","points":[{"x":0.6000,"ok":true}],"cell":{"waf":1.500000,"n":7},"none":[]}],"raw":{"k":1}}|}
    (Json.compact doc)


(* ---- Heap model check (qcheck) ---- *)

(* Random pushes (times from a tiny set, to force ties) interleaved with
   pops, against a sorted-list reference. Checks the full key triple
   (time, seq, aux) through the non-allocating min_* reads as well as the
   popped payloads, then drains both to the end. *)
let prop_heap_model =
  qcase ~count:300 "heap matches sorted-list model"
    QCheck.(list (pair (int_bound 9) bool))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let min_agrees () =
        match !model with
        | [] -> Heap.is_empty h
        | (t, s, a, _) :: _ ->
            Heap.min_time h = t && Heap.min_seq h = s && Heap.min_aux h = a
      in
      let pop_agrees () =
        ok := !ok && min_agrees ();
        match (Heap.pop_min h, !model) with
        | Some (t, s, v), (mt, ms, _, mv) :: rest ->
            ok := !ok && t = mt && s = ms && v = mv;
            model := rest
        | None, [] -> ()
        | _ -> ok := false
      in
      List.iter
        (fun (digit, is_pop) ->
          if is_pop && !model <> [] then pop_agrees ()
          else begin
            let time = float_of_int digit /. 2.0 in
            let s = !seq in
            incr seq;
            Heap.push h ~time ~seq:s ~aux:(s * 7) s;
            model := List.sort compare ((time, s, s * 7, s) :: !model)
          end)
        ops;
      while !model <> [] do
        pop_agrees ()
      done;
      ok := !ok && Heap.is_empty h;
      !ok)

let test_heap_clear_reuse () =
  let h = Heap.create () in
  for i = 0 to 40 do
    Heap.push h ~time:(float_of_int (i mod 5)) ~seq:i ~aux:i i
  done;
  ignore (Heap.pop_unsafe h);
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h);
  Alcotest.(check int) "length zero" 0 (Heap.length h);
  Heap.push h ~time:2.0 ~seq:100 ~aux:9 100;
  Heap.push h ~time:1.0 ~seq:101 ~aux:8 101;
  Alcotest.(check int) "min aux after reuse" 8 (Heap.min_aux h);
  match Heap.pop_min h with
  | Some (t, s, v) ->
      Alcotest.(check (float 0.0)) "time" 1.0 t;
      Alcotest.(check int) "seq" 101 s;
      Alcotest.(check int) "value" 101 v
  | None -> Alcotest.fail "expected entry"

(* record_span must round to nearest nanosecond, not truncate: every case
   here sits just above or below a .5 ns boundary, where truncation would
   shift the sample down a bucket. *)
let test_hist_record_span_rounding () =
  let recorded span =
    let h = Hist.create () in
    Hist.record_span h span;
    Hist.max_value h
  in
  Alcotest.(check int) "0.4 ns down" 0 (recorded 0.4e-9);
  Alcotest.(check int) "0.6 ns up" 1 (recorded 0.6e-9);
  Alcotest.(check int) "1.0 ns exact" 1 (recorded 1.0e-9);
  Alcotest.(check int) "2.6 ns up" 3 (recorded 2.6e-9);
  (* 63.6 ns straddles the linear/log bucket boundary at 64. *)
  Alcotest.(check int) "63.6 ns up across boundary" 64 (recorded 63.6e-9)

(* ---- Determinism goldens ---- *)

(* Captured from the engine BEFORE the structure-of-arrays heap and
   streamlined run loop landed (commit f33d1b7's implementation): the
   rewrite must replay the exact same event order, tie-break draws, and
   store behaviour. If one of these fails, the event queue's observable
   semantics changed — that is a correctness bug, not a stale test. *)

let golden_engine_clock = 9.5
let golden_engine_executed = 500
let golden_engine_choices = "11,8,0,14,14,3,4,6,5,14,11,1,8,1,3,3,2,5,1,3,2,2,0,3,0,15,6,2,12,8,6,7,3,1,2,2,1,0,0,0,3,17,10,21,8,11,18,1,6,12,0,1,12,5,11,2,9,3,0,1,2,1,1,2,1,0,31,11,4,21,12,22,13,22,5,24,6,15,8,14,3,3,9,5,11,2,1,2,10,6,6,1,4,2,5,4,1,1,0,12,1,10,5,17,4,2,15,13,4,0,10,6,2,10,3,7,3,4,1,0,4,0,1,1,17,8,12,0,8,11,4,14,15,11,15,1,5,10,6,2,0,5,0,2,5,5,0,1,2,0,21,22,0,16,0,11,15,1,4,17,16,10,11,10,10,11,3,3,7,1,1,1,4,3,2,0,19,17,16,6,8,4,9,13,8,3,4,0,8,9,2,5,0,3,1,1,0,0,29,29,12,12,10,2,17,19,8,8,17,4,0,17,6,0,1,14,2,0,2,8,5,6,0,6,5,3,4,3,0,0,8,4,1,5,2,2,0,6,6,1,0,3,2,0,15,7,4,6,7,10,16,5,14,9,10,7,0,7,1,7,6,3,4,2,1,1,23,20,22,16,10,11,17,12,13,5,6,0,13,2,10,5,6,2,2,4,2,2,1,1,1,8,7,8,10,4,2,4,6,3,4,3,3,1,2,1,20,20,1,1,16,5,4,10,4,13,11,2,0,5,4,0,1,0,5,3,1,0,1,23,0,10,9,17,1,3,1,2,13,13,13,1,10,1,0,3,5,0,4,1,3,0,1,14,3,30,11,1,25,9,2,2,1,13,19,0,13,8,1,11,14,7,8,1,4,0,7,6,5,4,1,2,2,2,1,7,13,10,16,11,5,7,5,12,3,6,4,2,7,0,0,0,2,2,1,4,19,6,19,0,0,13,8,0,1,1,12,1,3,9,4,5,2,3,2,2,0,0,21,16,15,1,12,9,13,21,4,15,8,7,10,4,14,6,9,7,8,7,8,6,4,1,0,1,2,0,1,19,17,6,1,19,5,10,13,0,7,4,12,9,6,0,5,0,4,2,0,0,2,1"
let golden_prism_clock = "6.2645077399380952e-05"
let golden_prism_executed = 1518
let golden_prism_choices = "2,3,3,2,0,2,1,0,1,0,1,0,0,1,0,0,1,1,1,0,0,1,1,1,0,1,1,1,1,1,1,0,1,0,1,1,1,1,0,0,0,1,0,1,1,0,0,1,0,1,1,0,0,1,1,1,1,0,0,0,0,0,0,0,0,1,0,0,1,0,0,1,0,0,0,1,1,0,0,1,1,1,0,1,1,0,0,0,0,0,1,1,1,0,0,1,1,0,1,0,0,1,0,0,0,1,0,0,1,0,1,0,0,1,1,1,0,0,1,1,0,0,0,0,1,1,0,1,1,0,1,0,1,1,1,0,0,0,1,0,0,0,0,1,1,0,1,0,0,1,1,1,1,1,0,1,0,1,1,1,1,0,0,0,1,1,1,1,1,1,1,0,0,1,0,0,0,0,1,1,1,1,1,1,1,1,0,1,0,1,0,0,1,0,0,1,1,1,0,1,0,1,0,1,0,1,0,0,1,1,1,1,1,1,1,0,0,1,1,0,1,0,0,1,0,1,1,0,1,0,0,1,1,0,0,0,0,0,0,0,1,1,1,0,1,1,1,1,0,0,1,0,0,1,0,0,1,1,0,0,0,0,0,0,1,0,1,0,1,0,1,1,0,1,0,0,1,1,0,1,0,0,0,1,0,1,1,1,1,0,0,1,1,0,0,1,0,0,0,0,1,1,1,0,1,1,1,1,0,0,0,1,0,0,1,0,0,1,0,1,0,0,1,1,1,1,1,1,0,1,0,1,0,1,0,1,0,0,1,0,0,0,0,1,0,0,0,0,0,1,1,1,0,0,0,0,0,1,1,0,1,1,0,1,0,0,0,0,1,1,0,1,1,1,0,1,1,0,0,0,1,1,0,0,1,0,1,1,1,0,0,1,1,0,0,1,1,0,1,0,0,0,0,1,0,0,1,0,0,0,0,1,0,1,1,0,0,1,1,0,0,0,0,1,0,0,0,1,1,0,1,0,0,0,1,1,1,0,0,1,0,1,0,1,1,1,0,1,1,0,0,1,1,0,1,1,0,0,1,0,0,0,1,0,0,1,0,0,1,0,0,1,0,1,1,0,0,1,1,0,0,0,0,1,1,0,1,1,1,1,1,1,0,0,0,1,1,0,0,1,1,1,0,1,1,1,0,1,0,1,1,0,0,0,0,0,0,1,0,1,0,1,1,0,1,0,0,1,1,0,0,0,0,0,1,0,0,0,1,0,0,1,1,0,0,0,0,1,0,1,0,1,1,0,1,1,1,1,0,0,1,0,0,0,0,0,0,0,0,0,0,1,1,0,1,1,1,1,1,1,1,0,1,1,1,1,1,1,0,0,1,1,0,1,0,0,1,0,1,0,1,1,0,0,1,0,0,1,0,1,0,1,0,0,0,1,1,0,1,1,1,1,0,1,0,0,1,0,0,1,1,1,0,0,0,0,1"
let golden_prism_stats = "78,42,0,18,0,24"

let choices_string engine =
  String.concat ","
    (Array.to_list (Array.map string_of_int (Engine.recorded_choices engine)))

let test_golden_engine_schedule () =
  let engine = Engine.create () in
  Engine.set_tie_break engine (Engine.Seeded 123L);
  let rng = Rng.create 7L in
  let buf = Buffer.create 4096 in
  for id = 0 to 499 do
    let at = float_of_int (Rng.int rng 20) *. 0.5 in
    Engine.spawn engine ~at (fun () ->
        Buffer.add_string buf
          (Printf.sprintf "%d@%.1f;" id (Engine.now engine)))
  done;
  let clock = Engine.run engine in
  Alcotest.(check (float 0.0)) "clock" golden_engine_clock clock;
  Alcotest.(check int) "executed" golden_engine_executed
    (Engine.events_executed engine);
  Alcotest.(check string) "tie-break draws" golden_engine_choices
    (choices_string engine)

let test_golden_prism_run () =
  let engine = Engine.create () in
  Engine.set_tie_break engine (Engine.Seeded 42L);
  let store_ref = ref None in
  Engine.spawn engine (fun () ->
      let cfg =
        {
          (Prism_core.Config.scaled ~threads:3 ~keys:64 ~value_size:64
             Prism_core.Config.default)
          with
          Prism_core.Config.seed = 5L;
        }
      in
      let store = Prism_core.Store.create engine cfg in
      store_ref := Some store;
      let rng = Rng.create 5L in
      for tid = 0 to 2 do
        Engine.spawn engine (fun () ->
            for i = 0 to 39 do
              let k = Printf.sprintf "key%08d" (Rng.int rng 64) in
              if i mod 3 = 0 then ignore (Prism_core.Store.get store ~tid k)
              else
                Prism_core.Store.put store ~tid k
                  (Bytes.make 64 (Char.chr (65 + (i mod 26))))
            done)
      done);
  let clock = Engine.run engine in
  Alcotest.(check string) "clock" golden_prism_clock
    (Printf.sprintf "%.17g" clock);
  Alcotest.(check int) "executed" golden_prism_executed
    (Engine.events_executed engine);
  Alcotest.(check string) "tie-break draws" golden_prism_choices
    (choices_string engine);
  let s = Prism_core.Store.stats (Option.get !store_ref) in
  Alcotest.(check string) "store stats" golden_prism_stats
    (Printf.sprintf "%d,%d,%d,%d,%d,%d" s.Prism_core.Store.puts
       s.Prism_core.Store.gets s.Prism_core.Store.svc_hits
       s.Prism_core.Store.pwb_hits s.Prism_core.Store.vs_reads
       s.Prism_core.Store.misses)


let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          case "ordering" test_heap_order;
          case "fifo ties" test_heap_fifo_ties;
          case "empty" test_heap_empty;
          case "interleaved" test_heap_interleaved;
          case "clear and reuse" test_heap_clear_reuse;
          prop_heap_sorted;
          prop_heap_model;
        ] );
      ( "engine",
        [
          case "delay advances time" test_engine_delay_advances_time;
          case "processes interleave" test_engine_two_processes_interleave;
          case "run until" test_engine_run_until;
          case "stop" test_engine_stop;
          case "negative delay" test_engine_negative_delay_rejected;
          case "schedule callback" test_engine_schedule_callback;
          case "same-time order" test_engine_same_time_order;
          case "yield" test_engine_yield_reorders;
          case "clear pending" test_engine_clear_pending;
          case "suspend/resume" test_engine_suspend_resume;
          case "double resume rejected" test_engine_double_resume_rejected;
          case "event count" test_engine_events_counted;
          case "nested delays" test_engine_nested_calls_can_delay;
        ] );
      ( "ivar",
        [
          case "fill then read" test_ivar_fill_then_read;
          case "blocks until fill" test_ivar_blocks_until_fill;
          case "multiple readers" test_ivar_multiple_readers;
          case "double fill" test_ivar_double_fill_rejected;
          case "peek" test_ivar_peek;
          case "timeout expires" test_ivar_timeout_expires;
          case "fill beats timeout" test_ivar_timeout_beaten_by_fill;
        ] );
      ( "mailbox",
        [
          case "fifo" test_mailbox_fifo;
          case "blocking recv" test_mailbox_blocking_recv;
          case "competing receivers" test_mailbox_competing_receivers;
          case "try_recv" test_mailbox_try_recv;
        ] );
      ( "semaphore",
        [
          case "limits concurrency" test_semaphore_limits_concurrency;
          case "try acquire" test_semaphore_try_acquire;
          case "mutex exclusion" test_mutex_exclusion;
          case "mutex exception safety" test_mutex_releases_on_exception;
          case "latch" test_latch;
          case "latch zero" test_latch_zero;
        ] );
      ( "rng",
        [
          case "deterministic" test_rng_deterministic;
          case "split independent" test_rng_split_independent;
          prop_rng_float_range;
          prop_rng_int_bound;
          case "rough uniformity" test_rng_uniformity_rough;
          case "shuffle permutation" test_rng_shuffle_permutation;
          case "exponential mean" test_rng_exponential_mean;
        ] );
      ( "bits",
        [
          case "msb" test_bits_msb;
          prop_bits_msb;
          case "helpers" test_bits_helpers;
        ] );
      ( "hist",
        [
          case "empty" test_hist_empty;
          case "exact small" test_hist_exact_small_values;
          case "percentile monotone" test_hist_percentile_monotone;
          case "relative error" test_hist_relative_error;
          case "merge" test_hist_merge;
          case "record span" test_hist_record_span;
          case "record span rounds to nearest" test_hist_record_span_rounding;
          case "negative clamped" test_hist_negative_clamped;
          prop_hist_percentile_bounds;
          case "quantile boundaries" test_hist_quantile_boundaries;
          case "quantile interpolates" test_hist_quantile_interpolates;
          case "quantile monotone" test_hist_quantile_monotone;
          case "quantile tail resolution" test_hist_quantile_tail_resolution;
          case "fine relative error" test_hist_fine_relative_error;
          prop_hist_quantile_bounds;
        ] );
      ( "metric",
        [
          case "counter" test_counter;
          case "timeline" test_timeline;
          case "mark before tick" test_timeline_mark_before_tick;
          case "total and reset" test_timeline_total_and_reset;
        ] );
      ( "stats",
        [
          case "shared counter" test_stats_counter_shared;
          case "adopted counter" test_stats_adopted_counter;
          case "sanitize" test_stats_sanitize;
          case "snapshot diff reset" test_stats_snapshot_diff_reset;
          case "json export" test_stats_json;
        ] );
      ( "span",
        [
          case "disabled noop" test_span_disabled_noop;
          case "self time" test_span_self_time;
          case "chrome export" test_span_chrome_export;
        ] );
      ( "json",
        [
          case "registry and trace bytes" test_json_golden_registry_and_trace;
          case "pretty layout" test_json_pretty_layout;
        ] );
      ( "determinism-golden",
        [
          case "seeded tie-breaks replay pre-rewrite schedule"
            test_golden_engine_schedule;
          case "prism store run replays pre-rewrite schedule"
            test_golden_prism_run;
        ] );
    ]
