(* bench/perf: wall-clock microbenchmark harness for the simulation
   engine and the stores behind the Kv layer.

   Unlike bench/main.exe (which reports *virtual-time* results and must be
   bit-stable), everything here is measured in host wall-clock seconds and
   host GC words: it answers "how fast does the simulator itself run",
   which is what the hot-path optimization work targets.

     dune exec bench/perf.exe --                   full run
     dune exec bench/perf.exe -- --quick           CI-sized run
     dune exec bench/perf.exe -- --out FILE        JSON report (default
                                                   BENCH_sim.json)
     dune exec bench/perf.exe -- --baseline FILE   fail (exit 1) if a
                                                   gated rate drops >30%
                                                   below FILE's value, or
                                                   a gated minor-words/op
                                                   count exceeds its
                                                   ceiling there
     dune exec bench/perf.exe -- --gc-tune         large minor heap

   Every metric key in the JSON is globally unique, so the baseline gate
   (and any external consumer) can find a value with a plain string scan —
   no JSON parser dependency. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_cli

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Measurement scaffolding                                           *)
(* ---------------------------------------------------------------- *)

type sample = {
  rate : float; (* operations per wall second, best repetition *)
  ns_per_op : float;
  minor_words_per_op : float;
}

(* Best-of-[reps]: the benchmark machine is shared, so the minimum-noise
   repetition is the honest estimate of the code's cost. GC words per op
   are from the best-rate repetition as well. *)
let measure ~reps ~ops f =
  let best = ref neg_infinity in
  let best_words = ref 0.0 in
  for _ = 1 to reps do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    let rate = float_of_int ops /. dt in
    if rate > !best then begin
      best := rate;
      best_words := dw /. float_of_int ops
    end
  done;
  {
    rate = !best;
    ns_per_op = 1e9 /. !best;
    minor_words_per_op = !best_words;
  }

let results : (string * sample) list ref = ref []

let report name sample =
  results := (name, sample) :: !results;
  pf "%-28s %12.0f /s  %8.1f ns/op  %7.1f minor words/op\n%!" name sample.rate
    sample.ns_per_op sample.minor_words_per_op

(* Figures that are not rates: reported under their own JSON key
   ([name] and [suffix] as for rates), gated only as a listed ceiling
   ([figure_ceilings]). *)
let figures : (string * string * float) list ref = ref []

let figure name suffix ~unit value =
  figures := (name, suffix, value) :: !figures;
  pf "%-28s %12.0f %s\n%!" name value unit

(* ---------------------------------------------------------------- *)
(* Bare-engine benchmarks                                            *)
(* ---------------------------------------------------------------- *)

(* Dispatch: 64 self-rescheduling callbacks — the pure event-loop path
   (enqueue, heap sift, pop, indirect call), no effects involved. *)
let bench_engine_dispatch ~ops ~reps =
  let sources = 64 in
  let run () =
    let e = Engine.create () in
    let remaining = ref ops in
    for i = 0 to sources - 1 do
      let period = float_of_int ((i mod 7) + 1) *. 1e-6 in
      let rec fire () =
        decr remaining;
        if !remaining <= 0 then Engine.stop e
        else Engine.schedule e ~after:period fire
      in
      Engine.schedule e ~after:period fire
    done;
    ignore (Engine.run e)
  in
  report "engine.dispatch" (measure ~reps ~ops run)

(* Process: 64 effect-handled processes looping on Engine.delay. Another
   process is almost always due no later than the delaying one, so this
   measures the queued path: every delay captures its continuation,
   round-trips through the heap and resumes. *)
let bench_engine_process ~ops ~reps =
  let sources = 64 in
  let run () =
    let e = Engine.create () in
    let per_proc = ops / sources in
    for i = 0 to sources - 1 do
      let period = float_of_int ((i mod 7) + 1) *. 1e-6 in
      Engine.spawn e (fun () ->
          for _ = 1 to per_proc do
            Engine.delay period
          done)
    done;
    ignore (Engine.run e)
  in
  report "engine.process" (measure ~reps ~ops run)

(* Delay inline: one process delaying against an otherwise empty queue,
   so every delay takes the in-place path (the clock advances with no
   continuation captured and no heap traffic). *)
let bench_engine_delay_inline ~ops ~reps =
  let run () =
    let e = Engine.create () in
    Engine.spawn e (fun () ->
        for _ = 1 to ops do
          Engine.delay 1e-6
        done);
    ignore (Engine.run e)
  in
  report "engine.delay_inline" (measure ~reps ~ops run)

(* Device access: 16 processes issuing small synchronous accesses
   against one NVM timing model -- the shape of a Prism store's index,
   HSIT and PWB charges. Each access books the transfer and sleeps until
   its completion, retiring the model's in-flight count as it wakes.
   Returns the finished engine. *)
let device_access_sim ?(tie = Engine.Fifo) ~ops () =
  let open Prism_device in
  let sources = 16 in
  let e = Engine.create () in
  Engine.set_tie_break e tie;
  let nvm = Model.create e Spec.optane_dcpmm in
  let per_proc = ops / sources in
  for _ = 1 to sources do
    Engine.spawn e (fun () ->
        for i = 1 to per_proc do
          Model.access nvm
            (if i land 3 = 0 then Model.Write else Model.Read)
            ~size:64
        done)
  done;
  ignore (Engine.run e);
  e

let bench_device_access ~ops ~reps =
  report "device.access"
    (measure ~reps ~ops (fun () -> ignore (device_access_sim ~ops ())))

(* Tie dispatch: the same shape under [Guided (fun _ _ -> 0)], so every
   dispatch takes the non-FIFO path and every same-instant tie set is a
   decision (gathered in place, one member removed, the choice
   recorded). Rated in decisions per wall second; the count comes from
   one unmeasured run, since the schedule is deterministic. *)
let bench_engine_tie_dispatch ~ops ~reps =
  let tie = Engine.Guided (fun _ _ -> 0) in
  let decisions =
    Array.length (Engine.recorded_choices (device_access_sim ~tie ~ops ()))
  in
  report "engine.tie_dispatch"
    (measure ~reps ~ops:decisions (fun () ->
         ignore (device_access_sim ~tie ~ops ())))

(* ---------------------------------------------------------------- *)
(* Component benchmarks                                              *)
(* ---------------------------------------------------------------- *)

(* The clock-cell dispatch protocol the engine actually runs: due-check
   into the caller's clock array, pop, reschedule relative to the clock —
   no boxed float crosses the module boundary per event. *)
let bench_heap ~ops ~reps =
  let h = Heap.create () in
  let clock = [| 0.0; infinity |] in
  let noop () = () in
  for i = 0 to 63 do
    Heap.push h ~time:(float_of_int ((i mod 7) + 1) *. 1e-6) ~seq:i noop
  done;
  let seq = ref 64 in
  let run () =
    for _ = 1 to ops do
      ignore (Heap.advance_if_due h clock : bool);
      let v = Heap.pop_unsafe h in
      let period = float_of_int ((!seq mod 7) + 1) *. 1e-6 in
      Heap.push_after h ~clock ~after:period ~seq:!seq ~aux:0 v;
      incr seq
    done
  in
  report "heap.push_pop" (measure ~reps ~ops run)

let bench_hist ~ops ~reps =
  let hist = Hist.create () in
  let run () =
    for i = 1 to ops do
      Hist.record hist (i land 0xFFFFF)
    done
  in
  report "hist.record" (measure ~reps ~ops run)

let bench_rng ~ops ~reps =
  let rng = Rng.create 1L in
  let acc = ref 0 in
  let run () =
    for _ = 1 to ops do
      acc := !acc + Rng.int rng 1024
    done
  in
  report "rng.int" (measure ~reps ~ops run);
  ignore !acc

let bench_zipfian ~ops ~reps =
  let items = 100_000 in
  List.iter
    (fun (label, theta) ->
      let z = Zipfian.create ~items ~theta (Rng.create 2L) in
      let acc = ref 0 in
      let run () =
        for _ = 1 to ops do
          acc := !acc + Zipfian.next_rank z
        done
      in
      report label (measure ~reps ~ops run);
      ignore !acc)
    [ ("zipfian.theta099", 0.99); ("zipfian.theta12", 1.2) ]

(* The data-structure paths the paper figures lean on: a Key Index
   lookup (every Prism op), an LSM memtable insert and a bloom probe (the
   LSM baselines' write and read paths), and the HSIT location-word
   packing (every value relocation). Keys are built up front, so the
   rows time the structures rather than key formatting. *)
let bench_index ~ops ~reps =
  let keys = Array.init 50_000 Ycsb.key_of in
  let btree = Prism_index.Btree.create ~on_access:(fun _ _ -> ()) () in
  let bloom = Prism_index.Bloom.create ~expected_entries:10_000 () in
  for i = 0 to 9_999 do
    ignore (Prism_index.Btree.insert btree keys.(i) i);
    Prism_index.Bloom.add bloom keys.(i)
  done;
  let loop f () =
    for i = 1 to ops do
      f i
    done
  in
  report "index.btree_find"
    (measure ~reps ~ops
       (loop (fun i -> ignore (Prism_index.Btree.find btree keys.(i mod 10_000)))));
  (* A fresh skiplist per repetition, so every repetition inserts into
     the same structure and the row does not depend on which one was
     fastest. *)
  report "index.skiplist_insert"
    (measure ~reps ~ops (fun () ->
         let skiplist = Prism_index.Skiplist.create ~rng:(Rng.create 2L) () in
         loop
           (fun i ->
             ignore (Prism_index.Skiplist.insert skiplist keys.(i mod 50_000) i))
           ()));
  report "index.bloom_probe"
    (measure ~reps ~ops
       (loop (fun i -> ignore (Prism_index.Bloom.mem bloom keys.(i mod 20_000)))));
  report "location.encode"
    (measure ~reps ~ops
       (loop (fun i ->
            ignore
              (Prism_core.Location.encode
                 (Prism_core.Location.In_vs
                    { vs = 1; gen = i land 0xFFFF; chunk = 7; slot = 3 })
                 ~dirty:false))))

(* Poisson arrivals: the open-loop generator hot path. One exponential
   gap draw per op; the sweep driver calls this once per offered request,
   so it has to stay cheap relative to the event loop. *)
let bench_arrival ~ops ~reps =
  let acc = ref 0.0 in
  let run () =
    let rng = Rng.create 3L in
    for _ = 1 to ops do
      acc := !acc +. Rng.exponential rng ~mean:1e-6
    done
  in
  report "arrival.poisson" (measure ~reps ~ops run);
  ignore !acc

(* Kv.instrument middleware overhead: a null store wrapped by the
   middleware, driven from inside an engine process so Engine.now
   resolves. Measures the spans-disabled fast path — the minor-words
   column is the number that matters; it gates the allocation work on
   this layer (the slow path behind Span.enabled is not what runs in
   sweeps). *)
let bench_instrument ~ops ~reps =
  let value = Bytes.create 64 in
  let null =
    {
      Kv.name = "Null";
      stat_prefix = "null";
      put = (fun ~tid:_ _ _ -> ());
      get = (fun ~tid:_ _ -> None);
      delete = (fun ~tid:_ _ -> false);
      scan = (fun ~tid:_ _ _ -> []);
      quiesce = (fun () -> ());
      recover = None;
    }
  in
  let run () =
    let e = Engine.create () in
    let kv = Kv.instrument e null in
    Engine.spawn e (fun () ->
        for _ = 1 to ops / 2 do
          kv.Kv.put ~tid:0 "k" value;
          ignore (kv.Kv.get ~tid:0 "k")
        done);
    ignore (Engine.run e)
  in
  report "kv.instrument" (measure ~reps ~ops run)

(* ---------------------------------------------------------------- *)
(* Checker benchmarks                                                *)
(* ---------------------------------------------------------------- *)

(* dpor.default rates the DPOR walk of the checker's default shape
   (Explore.default: 4 threads x 48 ops, ~2.8k tie decisions per run) in
   explored classes per wall second, and records one walk's major-heap
   growth per class from a compacted heap. It runs before every other
   row so the process-wide [top_heap_words] high-water mark is its own.
   Peak heap follows one run's transient store and history, so it also
   records what a longer walk keeps: the live words a 200-class walk
   holds at its last commit, after a full major collection, per class —
   its frontier and its classes' reports. *)
let bench_dpor_default ~reps =
  let open Prism_check in
  let max_classes = 16 in
  let walk () = ignore (Explore.run_dpor ~max_classes Explore.default) in
  Gc.compact ();
  let base = (Gc.quick_stat ()).Gc.heap_words in
  walk ();
  let grown = (Gc.quick_stat ()).Gc.top_heap_words - base in
  report "dpor.default" (measure ~reps ~ops:max_classes walk);
  figure "dpor.default" "heap_bytes_per_class" ~unit:"heap bytes/class"
    (float_of_int (grown * (Sys.word_size / 8)) /. float_of_int max_classes);
  let classes = 200 in
  let runs =
    (Explore.run_dpor ~max_classes:classes Explore.default).Explore.runs
  in
  let live () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let before = live () in
  let held = ref 0 in
  let progress (s : Explore.schedule_stats) =
    if s.Explore.index + 1 = runs then held := live () - before
  in
  ignore (Explore.run_dpor ~progress ~max_classes:classes Explore.default);
  figure "dpor.default" "live_words_per_class" ~unit:"live words/class"
    (float_of_int !held /. float_of_int classes)

(* store.create rates building the store one checker run uses at
   Explore.default's shape (128 keys x 64 B, two Value Storages): every
   explored schedule pays it once. Its words per create count every word
   allocated, major heap included, so device images backed at their
   provisioned size instead of their written prefix show up there. *)
let bench_store_create ~quick ~reps =
  let open Prism_check in
  let creates = if quick then 200 else 1000 in
  let create () =
    for _ = 1 to creates do
      ignore
        (Explore.instance Explore.default (Engine.create ())
           ~pwb_size:(16 * 1024) ~keys:Explore.default.Explore.records)
    done
  in
  (* Minor words only reach the counters at a minor collection. *)
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  create ();
  let dw = words () -. w0 in
  report "store.create" (measure ~reps ~ops:creates create);
  figure "store.create" "words_per_create" ~unit:"words/create"
    (dw /. float_of_int creates)

(* ---------------------------------------------------------------- *)
(* Fleet benchmarks                                                  *)
(* ---------------------------------------------------------------- *)

(* fleet.dpor rates whole checker simulations per wall second through
   Explore.run_dpor (runs, not classes: pruned runs cost the same).
   fleet.speedup abuses the sample shape: its "rate" is the wall-clock
   ratio serial / two-process on a fleet of independent schedule runs.
   Each worker process has its own heap and GC, but starting one is a
   fixed cost per farm: the fork and teardown, and a page fault at each
   first write to a page it shares with the coordinator. The committed
   baseline floor (1.1) expects two cores to beat serial; the gate's
   30% slack absorbs a noisy runner. On the 2-vCPU development host this
   16 ms farm beats the floor only while both vCPUs run at once
   (EXPERIMENTS.md, "Process fleet"). *)
let bench_fleet ~quick ~reps =
  let open Prism_check in
  let cfg =
    {
      Explore.default with
      Explore.threads = 3;
      ops_per_thread = (if quick then 12 else 16);
      records = 48;
    }
  in
  let max_classes = if quick then 12 else 24 in
  let warm = Explore.run_dpor ~max_classes cfg in
  let runs = warm.Explore.runs in
  report "fleet.dpor"
    (measure ~reps ~ops:runs (fun () ->
         ignore (Explore.run_dpor ~max_classes cfg)));
  (* Larger per-schedule runs for the speedup ratio than for
     fleet.dpor, so each job outweighs its trip through the pipes. *)
  let speedup_cfg =
    {
      cfg with
      Explore.ops_per_thread = (if quick then 48 else 96);
      records = 96;
    }
  in
  let schedules = if quick then 8 else 12 in
  let time jobs =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (Explore.run ~jobs ~schedules speedup_cfg);
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let t1 = time 1 in
  let t2 = time 2 in
  report "fleet.speedup"
    { rate = t1 /. t2; ns_per_op = t2 *. 1e9; minor_words_per_op = 0.0 }

(* ---------------------------------------------------------------- *)
(* Store benchmarks (through the Kv layer)                           *)
(* ---------------------------------------------------------------- *)

(* One LOAD + one YCSB-A phase per store, wall-clocked end to end. The
   simulated hardware work per op differs by store, so these numbers are
   "simulator ops/sec for this store's model", comparable across commits
   but not across stores. store.prism_scan runs LOAD + YCSB-E through the
   same Prism store: its scans fill SVC chains whose sort-on-evict
   write-backs keep Value Storage GC busy, so host cost in GC victim
   selection shows up there. store.prism_miss runs LOAD + uniform YCSB-C
   gets, most of which miss the SVC: the TCQ, io_uring and SVC admission
   path. store.prism_hit runs LOAD + Zipf-0.99 YCSB-C gets, whose hot set
   the SVC holds: the cache-hit path. store.cluster runs LOAD + YCSB-A
   through a 4-shard cluster whose every eighth put is a 3-key 2PC
   batch: routing, the network and two-phase commit on top of the Prism
   shards. *)
let bench_stores ~quick ~reps =
  let s =
    {
      Setup.default_scenario with
      records = (if quick then 4_000 else 10_000);
      value_size = 256;
      threads = 16;
      num_ssds = 2;
      ops = (if quick then 8_000 else 20_000);
    }
  in
  let row ?(s = s) name store mix ~ops =
    let run () =
      let e = Engine.create () in
      let kv = Setup.of_name store s e in
      ignore (Runner.load e kv s);
      ignore (Runner.run e kv mix s)
    in
    report name (measure ~reps ~ops:(s.Setup.records + ops) run)
  in
  List.iter
    (fun store -> row ("store." ^ store) store Ycsb.ycsb_a ~ops:s.Setup.ops)
    ([ "prism"; "kvell" ] @ if quick then [] else [ "matrixkv"; "rocksdb-nvm" ]);
  row "store.prism_scan" "prism" Ycsb.ycsb_e ~ops:s.Setup.scan_ops;
  row ~s:{ s with theta = 0.0 } "store.prism_miss" "prism" Ycsb.ycsb_c
    ~ops:s.Setup.ops;
  row "store.prism_hit" "prism" Ycsb.ycsb_c ~ops:s.Setup.ops;
  let cluster () =
    let open Prism_cluster in
    let e = Engine.create () in
    let c, kv =
      Cluster.of_scenario e { Cluster.default with Cluster.shards = 4 } s
    in
    let kv =
      Cluster.with_batches c kv ~every:8 ~records:s.Setup.records
        ~seed:s.Setup.seed
    in
    ignore (Runner.load e kv s);
    ignore (Runner.run e kv Ycsb.ycsb_a s)
  in
  report "store.cluster"
    (measure ~reps ~ops:(s.Setup.records + s.Setup.ops) cluster)

(* ---------------------------------------------------------------- *)
(* JSON report + baseline gate                                       *)
(* ---------------------------------------------------------------- *)

let json_key name suffix =
  let b = Buffer.create 32 in
  String.iter
    (function ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b ^ "_" ^ suffix

let write_json path ~quick =
  Json.write path
    (Json.Obj
       ((("schema", Json.Str "prism-bench-sim-v1") :: ("quick", Json.Bool quick)
        :: List.concat_map
             (fun (name, s) ->
               [
                 (json_key name "per_sec", Json.fixed 1 s.rate);
                 (json_key name "minor_words_per_op", Json.fixed 3 s.minor_words_per_op);
               ])
             (List.rev !results))
       @ List.rev_map
           (fun (name, suffix, v) -> (json_key name suffix, Json.fixed 1 v))
           !figures));
  pf "\nwrote %s\n" path

(* The committed baseline has globally unique keys, so a plain substring
   scan suffices — no JSON library in the dependency cone. *)
let scan_number ~key text =
  let needle = Printf.sprintf "%S:" key in
  match
    (* find needle *)
    let nl = String.length needle and tl = String.length text in
    let rec find i =
      if i + nl > tl then None
      else if String.sub text i nl = needle then Some (i + nl)
      else find (i + 1)
    in
    find 0
  with
  | None -> None
  | Some start ->
      let tl = String.length text in
      let i = ref start in
      while !i < tl && text.[!i] = ' ' do
        incr i
      done;
      let j = ref !i in
      while
        !j < tl
        && match text.[!j] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false
      do
        incr j
      done;
      float_of_string_opt (String.sub text !i (!j - !i))

(* Gate: the bare-engine rates may not drop more than 30% below the
   committed baseline. Store rates are mostly reported but not gated
   (they are noisier: simulated-hardware model work dominates) — except
   store.prism, whose baseline is conservative enough to absorb the
   noise and which guards the put/get hot path; store.prism_scan, which
   guards the scan path (per-binding resolve, per-chunk coalesced reads,
   scan chains and sort-on-evict write-back); store.create, which guards
   store creation staying proportional to the bytes a store writes
   rather than the bytes it provisions; device.access, which guards a
   synchronous device access costing at most one queue entry; and
   engine.tie_dispatch, which guards the non-FIFO dispatch path every
   checker walk takes. *)
let gated_keys () =
  [
    "engine_dispatch_per_sec";
    "engine_process_per_sec";
    "arrival_poisson_per_sec";
    "store_prism_per_sec";
    "store_prism_scan_per_sec";
    "fleet_dpor_per_sec";
    "dpor_default_per_sec";
    "store_create_per_sec";
    "device_access_per_sec";
    "engine_tie_dispatch_per_sec";
  ]
  (* The speedup ratio only measures anything when two worker
     processes can actually run in parallel; on a single-core host it
     reads the cost of time-sharing and gating it would reject every
     healthy run. The floor (1.1, i.e. the fleet must beat serial)
     applies wherever there are two cores. *)
  @ (if Domain.recommended_domain_count () >= 2 then
       [ "fleet_speedup_per_sec" ]
     else [])

(* Gate: minor words per op may not rise above the committed ceiling.
   Unlike rates these counts are deterministic, so the ceilings sit just
   above the measured values: one more boxed float per event shows.
   engine.process is a parked process's queued delay, device.access a
   synchronous device charge; both should allocate nothing but the
   continuation the runtime captures (and [delay_behind]'s effect).
   store.prism_scan is LOAD + YCSB-E on Prism, whose scan path (flat
   per-scan buffers, word-level resolve, per-chunk reads) and movers
   should allocate little beyond the values they return or cache;
   store.prism_miss (uniform gets, mostly SVC misses), store.prism_hit
   (Zipf gets, mostly SVC hits) and store.prism (YCSB-A) hold the
   point-read miss path, the hit path and the put path to the same. store.cluster holds the cluster's routing, network and 2PC
   paths to allocating little beyond its Prism shards' own words.
   dpor.default counts words per explored class (192 ops and
   about 2.8k tie decisions): a DPOR decision allocates only the
   frontier node it keeps, so a per-decision record or closure shows. *)
let ceiling_keys =
  [
    "dpor_default";
    "engine_process";
    "device_access";
    "store_prism_scan";
    "store_prism";
    "store_prism_miss";
    "store_prism_hit";
    "store_cluster";
  ]

(* Figures gated the same way: dpor.default's live words per class
   holds what a walk keeps per explored class (its frontier nodes and
   class reports) to its measured size. *)
let figure_ceilings = [ "dpor_default_live_words_per_class" ]

let check_ceilings text ~failed =
  let measured key =
    match
      List.find_opt
        (fun (n, _) -> json_key n "minor_words_per_op" = key)
        !results
    with
    | Some (_, s) -> Some s.minor_words_per_op
    | None ->
        List.find_map
          (fun (n, suffix, v) ->
            if json_key n suffix = key then Some v else None)
          !figures
  in
  List.iter
    (fun key ->
      match (scan_number ~key text, measured key) with
      | None, _ -> pf "baseline: key %s absent, skipping\n" key
      | _, None -> pf "ceiling gate: %s not measured this run\n" key
      | Some ceiling, Some v ->
          if v > ceiling then begin
            failed := true;
            pf "ceiling gate FAILED: %s %.3f is above %.3f\n" key v ceiling
          end
          else pf "ceiling gate ok: %s %.3f (ceiling %.3f)\n" key v ceiling)
    (List.map (fun name -> name ^ "_minor_words_per_op") ceiling_keys
    @ figure_ceilings)

let check_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let failed = ref false in
  check_ceilings text ~failed;
  List.iter
    (fun key ->
      match scan_number ~key text with
      | None -> pf "baseline %s: key %s absent, skipping\n" path key
      | Some base -> (
          let name_prefix = String.sub key 0 (String.length key - String.length "_per_sec") in
          let current =
            List.find_opt
              (fun (name, _) -> json_key name "per_sec" = key)
              !results
          in
          match current with
          | None -> pf "baseline gate: %s not measured this run\n" name_prefix
          | Some (_, s) ->
              let floor = 0.7 *. base in
              if s.rate < floor then begin
                failed := true;
                pf
                  "baseline gate FAILED: %s %.0f /s is more than 30%% below \
                   baseline %.0f /s\n"
                  key s.rate base
              end
              else
                pf "baseline gate ok: %s %.0f /s (baseline %.0f /s)\n" key
                  s.rate base))
    (gated_keys ());
  if !failed then exit 1

(* ---------------------------------------------------------------- *)
(* CLI                                                               *)
(* ---------------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let out =
    Arg.(
      value & opt string "BENCH_sim.json"
      & info [ "out" ] ~doc:"Write the JSON report to $(docv)" ~docv:"FILE")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ]
          ~doc:
            "Compare against $(docv); exit 1 if a gated rate drops more \
             than 30% below it, or a gated minor-words/op count rises \
             above its ceiling there"
          ~docv:"FILE")
  in
  let main () quick out baseline =
    let engine_ops = if quick then 500_000 else 2_000_000 in
    let comp_ops = if quick then 1_000_000 else 4_000_000 in
    let reps = if quick then 2 else 3 in
    pf "prism simulation perf harness (%s)\n\n"
      (if quick then "quick" else "full");
    bench_dpor_default ~reps;
    bench_engine_dispatch ~ops:engine_ops ~reps;
    bench_engine_process ~ops:engine_ops ~reps;
    bench_engine_delay_inline ~ops:engine_ops ~reps;
    bench_device_access ~ops:engine_ops ~reps;
    bench_engine_tie_dispatch ~ops:engine_ops ~reps;
    bench_heap ~ops:comp_ops ~reps;
    bench_hist ~ops:comp_ops ~reps;
    bench_rng ~ops:comp_ops ~reps;
    bench_zipfian ~ops:comp_ops ~reps;
    bench_index ~ops:comp_ops ~reps;
    bench_arrival ~ops:comp_ops ~reps;
    bench_instrument ~ops:comp_ops ~reps;
    bench_fleet ~quick ~reps;
    bench_store_create ~quick ~reps;
    bench_stores ~quick ~reps;
    write_json out ~quick;
    match baseline with None -> () | Some path -> check_baseline path
  in
  Cli.exec ~name:"prism-perf"
    ~doc:"Wall-clock microbenchmarks of the simulation engine"
    Term.(
      const main $ Cli.gc_tune
      $ Cli.quick ~doc:"CI-sized run: fewer ops, fewer repetitions"
      $ out $ baseline)
