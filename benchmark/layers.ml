(* Per-layer metrics of the traced run: registry counts diffed over the
   measured phase, span and sampler readings, and each layer's public
   functions timed in isolation on the workload's own key stream. *)

open Prism_sim
open Prism_harness
open Rounds

(* ---- isolated layer timings ---- *)

(* The loaded keys of the op stream, in stream order, [m] of them
   (cycling when the stream is shorter). *)
let stream_keys (inp : inputs) m =
  let ks =
    List.filter (fun k -> k < inp.shape.records) (Array.to_list inp.ops.Inputs.key)
  in
  let ks = Array.of_list (if ks = [] then [ 0 ] else ks) in
  Array.init m (fun j -> ks.(j mod Array.length ks))

let median3 f =
  let xs = List.sort compare [ f (); f (); f () ] in
  List.nth xs 1

(* Host CPU ns per call: [prepare e] builds fresh state on a fresh engine
   and returns the timed loop, which runs as one process of that engine
   and returns how many calls it made. Median of three repetitions. *)
let ns_per_call prepare =
  median3 (fun () ->
      let e = Engine.create () in
      let ns = ref 0.0 in
      Engine.spawn e (fun () ->
          let loop = prepare e in
          let c0 = cpu_now () in
          let calls = loop () in
          ns := (cpu_now () -. c0) *. 1e9 /. float_of_int (max 1 calls));
      ignore (Engine.run e);
      !ns)

let nvm e size =
  Prism_media.Nvm.create e ~spec:Setup.nvm_array_spec ~size:(size + 4096) ()

let hsit_capacity records =
  let c = ref 1024 in
  while !c < 2 * records do
    c := !c * 2
  done;
  !c

(* An HSIT with one entry per loaded key, each pointing into a PWB. *)
let hsit e records =
  let cap = hsit_capacity records in
  let h = Prism_core.Hsit.create (nvm e (cap * 16)) ~capacity:cap in
  let ids =
    Array.init records (fun i ->
        let id = Prism_core.Hsit.alloc h in
        Prism_core.Hsit.write_primary h id
          (Prism_core.Location.In_pwb { thread = 0; voff = i * 64 });
        id)
  in
  (h, ids)

type micro = {
  index_find : float;
  index_scan : float;
  hsit_read : float;
  hsit_update : float;
  svc_lookup : float;
  svc_admit : float;
  pwb_append : float;
  tcq_read : float;
  nvm_write_persist : float;
}

let micro (inp : inputs) =
  let m = 20_000 in
  let records = inp.shape.records in
  let vsize = inp.shape.value_size in
  let ks = stream_keys inp m in
  let value = Bytes.make vsize 'v' in
  let cost = Prism_device.Cost.default in
  let index () =
    let t = Prism_index.Btree.create ~on_access:(fun _ _ -> ()) () in
    for i = 0 to records - 1 do
      ignore (Prism_index.Btree.insert t inp.keys.(i) i)
    done;
    t
  in
  let index_find =
    ns_per_call (fun _ ->
        let t = index () in
        fun () ->
          Array.iter (fun k -> ignore (Prism_index.Btree.find t inp.keys.(k))) ks;
          m)
  in
  let lens =
    let r = Inputs.stream inp.seed "scan-lengths" in
    Array.init (m / 10) (fun _ -> 1 + Inputs.below r 100)
  in
  let index_scan =
    ns_per_call (fun _ ->
        let t = index () in
        fun () ->
          Array.iteri
            (fun j count ->
              ignore (Prism_index.Btree.scan t ~from:inp.keys.(ks.(j)) ~count))
            lens;
          Array.length lens)
  in
  let hsit_read =
    ns_per_call (fun e ->
        let h, ids = hsit e records in
        fun () ->
          Array.iter (fun k -> ignore (Prism_core.Hsit.read_primary h ids.(k))) ks;
          m)
  in
  let hsit_update =
    ns_per_call (fun e ->
        let h, ids = hsit e records in
        let loc = Array.mapi (fun i _ -> i * 64) ids in
        fun () ->
          Array.iter
            (fun k ->
              let voff = loc.(k) in
              let next = voff + (records * 64) in
              if
                Prism_core.Hsit.update_primary h ids.(k)
                  ~expect:(Prism_core.Location.In_pwb { thread = 0; voff })
                  (Prism_core.Location.In_pwb { thread = 0; voff = next })
              then loc.(k) <- next)
            ks;
          m)
  in
  let svc e =
    let h, ids = hsit e records in
    let epoch = Prism_core.Epoch.create ~threads:1 in
    let svc =
      Prism_core.Svc.create e
        ~capacity:(max (256 * 1024) (records * vsize / 5))
        ~cost ~epoch ~hsit:h
    in
    Prism_core.Svc.start_manager svc;
    (h, ids, epoch, svc)
  in
  let admit_all h ids svc =
    let calls = ref 0 in
    Array.iter
      (fun k ->
        if Prism_core.Hsit.read_svc h ids.(k) = None then begin
          incr calls;
          ignore
            (Prism_core.Svc.admit svc ~hsit_id:ids.(k) ~key:inp.keys.(k) ~value
               ~cached_from:Prism_core.Location.Nowhere)
        end)
      ks;
    !calls
  in
  let svc_admit =
    ns_per_call (fun e ->
        let h, ids, _, svc = svc e in
        fun () -> admit_all h ids svc)
  in
  let svc_lookup =
    ns_per_call (fun e ->
        let h, ids, epoch, svc = svc e in
        ignore (admit_all h ids svc);
        fun () ->
          let calls = ref 0 in
          Array.iter
            (fun k ->
              match Prism_core.Hsit.read_svc h ids.(k) with
              | Some idx ->
                  incr calls;
                  ignore
                    (Prism_core.Epoch.with_pinned epoch ~tid:0 (fun () ->
                         Prism_core.Svc.lookup svc ~idx ~hsit_id:ids.(k)))
              | None -> ())
            ks;
          !calls)
  in
  let pwb_append =
    ns_per_call (fun e ->
        let size = 1 lsl 20 in
        let p = Prism_core.Pwb.create (nvm e size) ~thread:0 ~size in
        fun () ->
          Array.iter
            (fun k ->
              ignore (Prism_core.Pwb.append p ~hsit_id:k ~value);
              if Prism_core.Pwb.used p > size / 2 then
                Prism_core.Pwb.advance_head p ~to_:(Prism_core.Pwb.tail p))
            ks;
          m)
  in
  let tcq_read =
    (* TCQ coalesces concurrent readers, so it is driven by as many
       coroutines as the workload has clients. *)
    median3 (fun () ->
        let e = Engine.create () in
        let model = Prism_device.Model.create e Prism_device.Spec.samsung_980_pro in
        let uring = Prism_device.Io_uring.create e model ~queue_depth:64 ~cost in
        let tcq = Prism_core.Tcq.create uring ~limit:64 ~cost in
        let clients = inp.shape.clients in
        let per = m / clients in
        let entry =
          { Prism_device.Io_uring.dir = Prism_device.Model.Read; size = vsize; action = ignore }
        in
        for _ = 1 to clients do
          Engine.spawn e (fun () ->
              for _ = 1 to per do
                Prism_core.Tcq.read tcq entry
              done)
        done;
        let c0 = cpu_now () in
        ignore (Engine.run e);
        (cpu_now () -. c0) *. 1e9 /. float_of_int (per * clients))
  in
  let nvm_write_persist =
    ns_per_call (fun e ->
        let size = min (16 lsl 20) (max (1 lsl 20) (records * vsize)) in
        let n = nvm e size in
        let slots = size / vsize in
        fun () ->
          Array.iter
            (fun k -> Prism_media.Nvm.write_persist n ~off:(k mod slots * vsize) value)
            ks;
          m)
  in
  {
    index_find;
    index_scan;
    hsit_read;
    hsit_update;
    svc_lookup;
    svc_admit;
    pwb_append;
    tcq_read;
    nvm_write_persist;
  }

(* ---- the driver's own floor ---- *)

let null_kv =
  {
    Kv.name = "null";
    stat_prefix = "null";
    put = (fun ~tid:_ _ _ -> ());
    get = (fun ~tid:_ _ -> None);
    delete = (fun ~tid:_ _ -> false);
    scan = (fun ~tid:_ _ _ -> []);
    quiesce = ignore;
    recover = None;
  }

(* Host ns and minor words per op of the benchmark's driver, value
   stamping and oracle bookkeeping against a store that does nothing. *)
let driver_floor (inp : inputs) =
  let e = Engine.create () in
  let tgt = { engine = e; kv = null_kv; stores = [||]; cluster = None } in
  let orc = Oracle.create ~keys:inp.keys ~records:inp.shape.records ~max_puts:inp.max_puts in
  let env =
    { inp; tgt; orc; locks = locks (Array.length inp.keys); user_bytes = 0; commits = 0;
      aborts = 0 }
  in
  let n = inp.shape.ops in
  let lat = Array.make n 0 in
  let op ~tid i =
    locked env i (fun () ->
        let t0 = Engine.now_ns e in
        exec env ~tid i;
        lat.(i) <- Engine.now_ns e - t0)
  in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let c0 = cpu_now () in
  ignore (phase e ~clients:inp.shape.clients ~n op);
  let cpu = cpu_now () -. c0 in
  let words = Gc.minor_words () -. w0 in
  (cpu *. 1e9 /. float_of_int n, words /. float_of_int n)

(* ---- assembling the per-layer metrics ---- *)

let num diff name =
  match List.assoc_opt name diff with
  | Some (Stats.Int v) -> float_of_int v
  | Some (Stats.Float v) -> v
  | Some (Stats.Dist d) -> float_of_int d.count
  | None -> 0.0

(* Sum of every diffed metric named [prefix]<i>[suffix]. *)
let sum_matching diff ~prefix ~suffix =
  List.fold_left
    (fun acc (name, _) ->
      let lp = String.length prefix and ls = String.length suffix in
      let ln = String.length name in
      if
        ln > lp + ls
        && String.sub name 0 lp = prefix
        && String.sub name (ln - ls) ls = suffix
      then acc +. num diff name
      else acc)
    0.0 diff

let ratio a b = if b = 0.0 then 0.0 else a /. b

let span_total spans name =
  List.fold_left (fun acc (n, _, total, _) -> if n = name then acc +. total else acc) 0.0 spans

type walk_layers = { runs_per_class : float; pruned_ratio : float; heap_mb_per_class : float }

let no_walk = { runs_per_class = 0.0; pruned_ratio = 0.0; heap_mb_per_class = 0.0 }

(* A traced run walks one seed, so its heap growth is that walk's. *)
let of_walk (w : walk) =
  {
    runs_per_class = ratio (float_of_int w.runs) (float_of_int w.classes);
    pruned_ratio = ratio (float_of_int w.pruned) (float_of_int w.runs);
    heap_mb_per_class =
      ratio
        (float_of_int (w.heap_words * (Sys.word_size / 8)) /. 1048576.0)
        (float_of_int w.classes);
  }

(* [bare] and [traced] are rounds of one seed; store-layer counts are the
   [prism.*] registry diffs of [bare], normalized by the same store's own
   op counters (with several shards, one shard owns those names). *)
let metrics ~(bare : round) ~(traced : round) ~(micro : micro) ~driver ~walk =
  let d = num bare.diff in
  let n = float_of_int bare.n in
  let gets = d "prism.ops.gets" and scans = d "prism.ops.scans" in
  let puts = d "prism.ops.puts" in
  let reads = gets +. scans in
  let store_ops = reads +. puts +. d "prism.ops.deletes" in
  let resolved =
    d "prism.svc.hits" +. d "prism.pwb.hits" +. d "prism.vs.reads" +. d "prism.tier.hits"
  in
  let commits = d "prism.cluster.txn.commits" and aborts = d "prism.cluster.txn.aborts" in
  let dur = float_of_int traced.dur_ns *. 1e-9 in
  let s =
    match traced.samples with
    | Some s -> s
    | None -> invalid_arg "Layers.metrics: traced round without samples"
  in
  let samples = float_of_int (max 1 s.n) in
  let driver_ns, driver_words = driver in
  [
    ("engine.events_per_op", float_of_int bare.events /. n);
    ("engine.ns_per_event", bare.cpu *. 1e9 /. float_of_int (max 1 bare.events));
    ("gc.minor_collections_per_kop", float_of_int bare.minor_gcs *. 1000.0 /. n);
    ("gc.major_collections", float_of_int bare.major_gcs);
    ("driver.ns_per_op", driver_ns);
    ("driver.words_per_op", driver_words);
    ("index.find.ns_per_call", micro.index_find);
    ("index.scan.ns_per_call", micro.index_scan);
    ("hsit.read.ns_per_call", micro.hsit_read);
    ("hsit.update.ns_per_call", micro.hsit_update);
    ("svc.hit_ratio", ratio (d "prism.svc.hits") resolved);
    ("svc.evictions_per_kop", ratio (d "prism.svc.evictions" *. 1000.0) store_ops);
    ("svc.reorgs_per_kop", ratio (d "prism.svc.reorgs" *. 1000.0) store_ops);
    ("svc.lookup.ns_per_call", micro.svc_lookup);
    ("svc.admit.ns_per_call", micro.svc_admit);
    ("pwb.hit_ratio", ratio (d "prism.pwb.hits") resolved);
    ("pwb.max_util_mean", s.pwb_util /. samples);
    ("pwb.append.ns_per_call", micro.pwb_append);
    ( "reclaim.dead_ratio",
      ratio (d "prism.reclaim.dead") (d "prism.reclaim.dead" +. d "prism.reclaim.migrated") );
    ( "reclaim.busy_frac",
      ratio (span_total traced.spans "reclaimer.pass") (dur *. float_of_int traced.reclaimers) );
    ("tcq.mean_batch", ratio (d "prism.tcq.requests") (d "prism.tcq.batches"));
    ("tcq.read.ns_per_call", micro.tcq_read);
    ("vs.reads_per_get", ratio (d "prism.vs.reads") reads);
    ("vs.gc_runs_per_kop", ratio (d "prism.vs_gc.runs" *. 1000.0) store_ops);
    ( "vs.gc_busy_frac",
      ratio (span_total traced.spans "vs.gc") (dur *. float_of_int traced.value_storages) );
    ("vs.min_free_chunks", if s.n = 0 then 0.0 else s.min_free);
    ("ssd.read_bytes_per_op", ratio (d "prism.device.ssd.bytes_read") store_ops);
    ("ssd.write_bytes_per_update", ratio (d "prism.device.ssd.bytes_written") puts);
    ( "uring.sqes_per_submit",
      ratio
        (sum_matching bare.diff ~prefix:"prism.vs." ~suffix:".uring.sqes")
        (sum_matching bare.diff ~prefix:"prism.vs." ~suffix:".uring.submits") );
    ("ssd.busy_frac", s.busy /. (samples *. float_of_int (max 1 s.devices)));
    ("ssd.mean_in_flight", s.in_flight /. samples);
    ("nvm.persists_per_update", ratio (d "prism.device.nvm.persists") puts);
    ("nvm.write_bytes_per_update", ratio (d "prism.device.nvm.bytes_written") puts);
    ("nvm.read_bytes_per_get", ratio (d "prism.device.nvm.bytes_read") reads);
    ("nvm.write_persist.ns_per_call", micro.nvm_write_persist);
    ("cluster.prepares_per_commit", ratio (d "prism.cluster.txn.prepares") commits);
    ("cluster.abort_ratio", ratio aborts (commits +. aborts));
    ("cluster.timeouts", d "prism.cluster.txn.timeouts");
    ("cluster.locks_held_max", s.locks_max);
    ("net.msgs_per_op", d "net.msgs" /. n);
    ("net.bytes_per_op", d "net.bytes" /. n);
    ("cluster.log_bytes_per_commit", ratio (d "prism.cluster.log.bytes") commits);
    ("dpor.runs_per_class", walk.runs_per_class);
    ("dpor.pruned_ratio", walk.pruned_ratio);
    ("dpor.heap_mb_per_class", walk.heap_mb_per_class);
    ( "trace.overhead",
      (float_of_int traced.n /. traced.cpu) /. (float_of_int bare.n /. bare.cpu) );
  ]
