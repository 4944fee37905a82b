(* One round of a workload: build the store, LOAD it (set-up), run the
   measured closed-loop phase, and optionally check the outputs across a
   crash. Rounds of one seed are identical in virtual time and, chunk by
   chunk, in host work; the caller repeats them. *)

open Prism_sim
open Prism_harness
module Store = Prism_core.Store
module Cluster = Prism_cluster.Cluster
module Explore = Prism_check.Explore

type shape = {
  records : int;
  ops : int;
  clients : int;  (** closed-loop simulated clients, one coroutine each *)
  value_size : int;
  theta : float option;  (** Zipf skew of key popularity; [None] = uniform *)
  mix : Inputs.mix;
  shards : int;  (** > 1 runs a hash-partitioned cluster *)
  pwb_size : int option;  (** overrides Table 1's PWB sizing *)
}

(* Everything generated from the seed, shared by every round. *)
type inputs = {
  shape : shape;
  seed : int64;
  keys : string array;
  load : int array;
  ops : Inputs.ops;
  max_puts : int;
}

let inputs shape ~seed =
  let ops =
    Inputs.ops ~seed ~records:shape.records ~count:shape.ops ~theta:shape.theta
      shape.mix
  in
  let inserted = Inputs.inserts ops in
  {
    shape;
    seed;
    keys = Inputs.keys ~seed ~count:(shape.records + inserted);
    load = Inputs.load_order ~seed ~records:shape.records;
    ops;
    max_puts = shape.records + Inputs.puts ops ~batch_width:shape.mix.batch_width;
  }

type target = {
  engine : Engine.t;
  kv : Kv.t;
  stores : Store.t array;
  cluster : Cluster.t option;
}

let scenario (i : inputs) =
  let s = i.shape in
  {
    Setup.default_scenario with
    Setup.records = s.records;
    value_size = s.value_size;
    threads = s.clients;
    num_ssds = 2;
    theta = Option.value s.theta ~default:0.0;
    ops = s.ops;
    seed = i.seed;
  }

(* Cluster logs are never truncated, so they are sized for every prepare
   and commit record the op stream can produce (the default 1 MiB fills
   up at this scale). *)
let log_sizes (i : inputs) =
  let m = i.shape.mix in
  let batches =
    Array.fold_left
      (fun n k -> if k = Inputs.Batch then n + 1 else n)
      0 i.ops.Inputs.kind
  in
  let prepare = 17 + (m.Inputs.batch_width * (20 + i.shape.value_size)) in
  let slack = 64 * 1024 in
  ((batches * 13) + slack, (batches * (prepare + 13)) + slack)

let target ?(tweak = Fun.id) (i : inputs) engine =
  let tweak c =
    tweak
      (match i.shape.pwb_size with
      | Some p -> { c with Prism_core.Config.pwb_size = p }
      | None -> c)
  in
  if i.shape.shards > 1 then begin
    let log_size, plog_size = log_sizes i in
    let cfg =
      {
        Cluster.default with
        Cluster.shards = i.shape.shards;
        log_size;
        plog_size;
        seed = i.seed;
      }
    in
    let c, kv = Cluster.of_scenario ~tweak engine cfg (scenario i) in
    { engine; kv; stores = Array.init i.shape.shards (Cluster.store c); cluster = Some c }
  end
  else
    let kv, store = Setup.prism ~tweak engine (scenario i) in
    { engine; kv; stores = [| store |]; cluster = None }

(* ---- the closed-loop driver ---- *)

(* [phase engine ~clients ~n op] runs ops [0, n) on [clients] coroutines,
   each taking the next unclaimed op when its previous one returns, and
   returns the virtual start and end in ns. [last] runs on the last
   client to finish, before the phase ends. *)
let phase engine ~clients ~n ?(last = ignore) op =
  let next = ref 0 and live = ref clients and t_end = ref (-1) in
  let t0 = Engine.now_ns engine in
  for tid = 0 to clients - 1 do
    Engine.spawn engine (fun () ->
        let rec loop () =
          let i = !next in
          if i < n then begin
            next := i + 1;
            op ~tid i;
            loop ()
          end
        in
        loop ();
        decr live;
        if !live = 0 then begin
          last ();
          t_end := Engine.now_ns engine;
          Engine.stop engine
        end)
  done;
  ignore (Engine.run engine);
  if !t_end < 0 then failwith "benchmark: phase did not complete";
  (t0, !t_end)

(* ---- per-key client locks ---- *)

(* Clients hold a per-key reader/writer lock around each get, put and
   batch: reads share a key, a write excludes everything else on it, and
   a waiting writer holds off new readers. Without it the oracle catches
   Prism's SVC admission window (README, findings): a get that publishes
   a value it read from SSD exposes it, until its verify-after-publish
   unpublishes it, to gets that began after an update replaced it. Scans
   take no lock; no workload scans keys that are being updated. *)
type locks = {
  readers : int array;
  writer : bool array;
  writers_waiting : int array;
  waiters : (int, (unit -> unit) list) Hashtbl.t;
}

let locks n =
  {
    readers = Array.make n 0;
    writer = Array.make n false;
    writers_waiting = Array.make n 0;
    waiters = Hashtbl.create 64;
  }

let wait l k =
  Engine.suspend (fun resume ->
      Hashtbl.replace l.waiters k
        (resume :: Option.value (Hashtbl.find_opt l.waiters k) ~default:[]))

let rec lock_read l k =
  if l.writer.(k) || l.writers_waiting.(k) > 0 then begin
    wait l k;
    lock_read l k
  end
  else l.readers.(k) <- l.readers.(k) + 1

let lock_write l k =
  l.writers_waiting.(k) <- l.writers_waiting.(k) + 1;
  while l.writer.(k) || l.readers.(k) > 0 do
    wait l k
  done;
  l.writers_waiting.(k) <- l.writers_waiting.(k) - 1;
  l.writer.(k) <- true

let unlock l k =
  if l.writer.(k) then l.writer.(k) <- false else l.readers.(k) <- l.readers.(k) - 1;
  match Hashtbl.find_opt l.waiters k with
  | Some ws ->
      Hashtbl.remove l.waiters k;
      List.iter (fun resume -> resume ()) (List.rev ws)
  | None -> ()

type env = {
  inp : inputs;
  tgt : target;
  orc : Oracle.t;
  locks : locks;
  mutable user_bytes : int;  (** value bytes of acknowledged puts *)
  mutable commits : int;
  mutable aborts : int;
}

let put env ~tid k =
  let id, start = Oracle.begin_put env.orc k in
  let v = Inputs.stamp ~size:env.inp.shape.value_size ~key:k ~put:id in
  env.tgt.kv.Kv.put ~tid env.inp.keys.(k) v;
  Oracle.end_put env.orc k ~id ~start;
  env.user_bytes <- env.user_bytes + Bytes.length v

let batch_keys env i =
  let o = env.inp.ops in
  let first = o.Inputs.arg.(i) in
  o.Inputs.key.(i)
  :: List.init (env.inp.shape.mix.Inputs.batch_width - 1) (fun j ->
         o.Inputs.extra.(first + j))

let batch env ~tid i =
  let ks = batch_keys env i in
  let writes =
    List.map
      (fun k ->
        let id, start = Oracle.begin_put env.orc k in
        (k, id, start, Inputs.stamp ~size:env.inp.shape.value_size ~key:k ~put:id))
      ks
  in
  let outcome =
    match env.tgt.cluster with
    | Some c -> Cluster.batch c ~tid (List.map (fun (k, _, _, v) -> (env.inp.keys.(k), v)) writes)
    | None -> Cluster.Committed (* the driver floor's null store *)
  in
  match outcome with
  | Cluster.Committed ->
      env.commits <- env.commits + 1;
      List.iter
        (fun (k, id, start, v) ->
          Oracle.end_put env.orc k ~id ~start;
          env.user_bytes <- env.user_bytes + Bytes.length v)
        writes
  | Cluster.Aborted ->
      env.aborts <- env.aborts + 1;
      List.iter (fun (_, id, _, _) -> Oracle.abort_put env.orc ~id) writes

let exec env ~tid i =
  let o = env.inp.ops in
  let k = o.Inputs.key.(i) in
  match o.Inputs.kind.(i) with
  | Inputs.Get ->
      let floor = Oracle.begin_read env.orc k in
      let r = env.tgt.kv.Kv.get ~tid env.inp.keys.(k) in
      Oracle.end_get env.orc k ~floor r
  | Inputs.Update | Inputs.Insert -> put env ~tid k
  | Inputs.Scan ->
      let len = o.Inputs.arg.(i) in
      let at = Oracle.begin_scan env.orc in
      let items = env.tgt.kv.Kv.scan ~tid env.inp.keys.(k) len in
      Oracle.end_scan env.orc k ~len ~at items
  | Inputs.Batch -> batch env ~tid i

(* Run [f] holding op [i]'s key locks; a batch locks its keys in
   ascending order, so lock waits cannot cycle. *)
let locked env i f =
  let l = env.locks in
  let k = env.inp.ops.Inputs.key.(i) in
  match env.inp.ops.Inputs.kind.(i) with
  | Inputs.Get ->
      lock_read l k;
      f ();
      unlock l k
  | Inputs.Update | Inputs.Insert ->
      lock_write l k;
      f ();
      unlock l k
  | Inputs.Scan -> f ()
  | Inputs.Batch ->
      let ks = List.sort compare (batch_keys env i) in
      List.iter (lock_write l) ks;
      f ();
      List.iter (unlock l) ks

let span_name = function
  | Inputs.Get -> "client.get"
  | Inputs.Update -> "client.update"
  | Inputs.Scan -> "client.scan"
  | Inputs.Insert -> "client.insert"
  | Inputs.Batch -> "client.batch"

(* Client spans sit on tids offset by 1000 so they never nest with the
   store's own spans, which run on tid 0. *)
let client_tid = 1000

(* ---- sampler ---- *)

type samples = {
  mutable n : int;
  mutable pwb_util : float;  (** sum of max PWB utilization *)
  mutable min_free : float;  (** fewest free VS chunks seen *)
  mutable busy : float;  (** sum over devices of "has IO in flight" *)
  mutable in_flight : float;  (** sum of IOs in flight across devices *)
  mutable locks_max : float;
  devices : int;
}

(* A gauge's reader; 0 when the store has no such gauge (no cluster). *)
let reader reg name =
  match Stats.find reg name with
  | Some (Stats.Gauge f) -> (
      fun () ->
        match f () with
        | Stats.Int v -> float_of_int v
        | Stats.Float v -> v
        | Stats.Dist d -> float_of_int d.count)
  | Some (Stats.Counter _ | Stats.Histogram _ | Stats.Timeline _) | None -> fun () -> 0.0

(* A read-only process that reads registry gauges every [interval] of
   virtual time while [active] holds. With several shards in one engine
   the prism.* names belong to the last shard created. *)
let start_sampler tgt ~interval active =
  let reg = Engine.stats tgt.engine in
  let nvs = (Store.config tgt.stores.(0)).Prism_core.Config.num_value_storages in
  let vs fmt = List.init nvs (fun i -> reader reg (Printf.sprintf fmt i)) in
  let util = reader reg "prism.pwb.max_utilization" in
  let free = vs "prism.vs.%d.free_chunks" in
  let flight = vs "prism.vs.%d.dev.in_flight" in
  let locks = reader reg "prism.cluster.locks.held" in
  let s =
    {
      n = 0;
      pwb_util = 0.0;
      min_free = infinity;
      busy = 0.0;
      in_flight = 0.0;
      locks_max = 0.0;
      devices = nvs;
    }
  in
  Engine.spawn tgt.engine (fun () ->
      while !active do
        s.n <- s.n + 1;
        s.pwb_util <- s.pwb_util +. util ();
        List.iter (fun f -> s.min_free <- Float.min s.min_free (f ())) free;
        List.iter
          (fun f ->
            let x = f () in
            s.in_flight <- s.in_flight +. x;
            if x > 0.0 then s.busy <- s.busy +. 1.0)
          flight;
        s.locks_max <- Float.max s.locks_max (locks ());
        Engine.delay interval
      done);
  s

(* ---- a round ---- *)

type round = {
  setup_cpu : float;  (** host CPU s: store creation + LOAD *)
  cpu : float;  (** host CPU s of the measured phase *)
  chunk_ops : int;
  chunk_cpu : float array;  (** host CPU s of each [chunk_ops] completed ops *)
  words : float;  (** minor words allocated in the measured phase *)
  minor_gcs : int;
  major_gcs : int;
  events : int;  (** engine events executed in the measured phase *)
  n : int;  (** client ops in the measured phase *)
  dur_ns : int;  (** virtual length of the measured phase *)
  lat : int array;  (** virtual latency of op [i], ns *)
  user_bytes : int;  (** LOAD + measured *)
  ssd_bytes : int;  (** SSD bytes written over LOAD + measured *)
  recover_ns : int option;  (** virtual restart recovery, when checked *)
  attempted : int;
  failed : int;
  notes : string list;
  commits : int;
  aborts : int;
  diff : (string * Stats.value) list;  (** registry diff, measured phase *)
  spans : (string * int * float * float) list;
  samples : samples option;
  reclaimers : int;
  value_storages : int;
}

let cpu_now () = Sys.time ()

let chunks_per_round = 20

let ssd_written tgt = Array.fold_left (fun a s -> a + Store.ssd_bytes_written s) 0 tgt.stores

(* Get every key on all clients; [f k r] sees each result. *)
let sweep env ~count f =
  let e = env.tgt.engine in
  ignore
    (phase e ~clients:env.inp.shape.clients ~n:count (fun ~tid k ->
         f k (env.tgt.kv.Kv.get ~tid env.inp.keys.(k))))

let crash_and_recover env =
  let e = env.tgt.engine in
  Engine.clear_pending e;
  (match env.tgt.cluster with
  | Some c -> Cluster.crash c
  | None -> Array.iter Store.crash env.tgt.stores);
  let took = ref (-1) in
  Engine.spawn e (fun () ->
      let t0 = Engine.now_ns e in
      (match env.tgt.cluster with
      | Some c -> ignore (Cluster.recover c)
      | None -> Array.iter (fun s -> ignore (Store.recover s)) env.tgt.stores);
      took := Engine.now_ns e - t0;
      Engine.stop e);
  ignore (Engine.run e);
  if !took < 0 then failwith "benchmark: recovery did not complete";
  !took

(* [round ?tweak ~checks ~traced inp]: with [checks], a final sweep reads
   every key, the store crashes and recovers, and a post-crash sweep must
   find exactly what the final sweep read. With [traced], spans and the
   sampler run during the measured phase and the registry is diffed
   across it. *)
let round ?tweak ?(checks = false) ?(traced = false) (inp : inputs) =
  Gc.full_major ();
  let c0 = cpu_now () in
  let engine = Engine.create () in
  let tgt = target ?tweak inp engine in
  let orc = Oracle.create ~keys:inp.keys ~records:inp.shape.records ~max_puts:inp.max_puts in
  let env =
    { inp; tgt; orc; locks = locks (Array.length inp.keys); user_bytes = 0; commits = 0;
      aborts = 0 }
  in
  let clients = inp.shape.clients in
  ignore
    (phase engine ~clients ~n:inp.shape.records
       ~last:(fun () -> tgt.kv.Kv.quiesce ())
       (fun ~tid i -> put env ~tid inp.load.(i)));
  let setup_cpu = cpu_now () -. c0 in
  let n = inp.shape.ops in
  let lat = Array.make n 0 in
  let reg = Engine.stats engine in
  let spans = Engine.spans engine in
  let before = Stats.snapshot reg in
  let active = ref true in
  let samples =
    if traced then begin
      Span.set_enabled spans true;
      Some (start_sampler tgt ~interval:10e-6 active)
    end
    else None
  in
  let kinds = inp.ops.Inputs.kind in
  let chunk = max 1 (n / chunks_per_round) in
  let completed = ref 0 and chunk_cpu = ref [] and mark = ref 0.0 in
  let op ~tid i =
    locked env i (fun () ->
        let t0 = Engine.now_ns engine in
        (if traced then
           Engine.with_span engine ~tid:(client_tid + tid) (span_name kinds.(i))
             (fun () -> exec env ~tid i)
         else exec env ~tid i);
        lat.(i) <- Engine.now_ns engine - t0);
    incr completed;
    if !completed mod chunk = 0 then begin
      let now = cpu_now () in
      chunk_cpu := (now -. !mark) :: !chunk_cpu;
      mark := now
    end
  in
  let gc0 = Gc.quick_stat () in
  let ev0 = Engine.events_executed engine in
  let w0 = Gc.minor_words () in
  let c1 = cpu_now () in
  mark := c1;
  let t0, t1 = phase engine ~clients ~n ~last:(fun () -> active := false) op in
  let cpu = cpu_now () -. c1 in
  let words = Gc.minor_words () -. w0 in
  let events = Engine.events_executed engine - ev0 in
  let gc1 = Gc.quick_stat () in
  Span.set_enabled spans false;
  let diff = Stats.diff ~before ~after:(Stats.snapshot reg) in
  let user_bytes = env.user_bytes and ssd_bytes = ssd_written tgt in
  let recover_ns =
    if not checks then None
    else begin
      let count = Array.length inp.keys in
      let final = Array.make count (-1) in
      sweep env ~count (fun k r -> final.(k) <- Oracle.sweep_value orc k r);
      let took = crash_and_recover env in
      sweep env ~count (fun k r -> Oracle.durable orc k ~expect:final.(k) r);
      Some took
    end
  in
  let cfg = Store.config tgt.stores.(0) in
  let shards = Array.length tgt.stores in
  {
    setup_cpu;
    cpu;
    chunk_ops = chunk;
    chunk_cpu = Array.of_list (List.rev !chunk_cpu);
    words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    events;
    n;
    dur_ns = t1 - t0;
    lat;
    user_bytes;
    ssd_bytes;
    recover_ns;
    attempted =
      (inp.shape.records + n
      + if checks then 2 * Array.length inp.keys else 0);
    failed = Oracle.failures orc;
    notes = Oracle.notes orc;
    commits = env.commits;
    aborts = env.aborts;
    diff;
    spans = (if traced then Span.totals spans else []);
    samples;
    reclaimers = shards * cfg.Prism_core.Config.threads;
    value_storages = shards * cfg.Prism_core.Config.num_value_storages;
  }

(* ---- virtual-time metrics of a round ---- *)

(* Nearest-rank percentile of a sorted array, or [None] unless at least
   ten samples lie beyond it. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  if n = 0 || n - rank < 10 then None else Some sorted.(max 0 (rank - 1))

let sorted_lat ?kind (r : round) (inp : inputs) =
  let xs =
    match kind with
    | None -> Array.copy r.lat
    | Some k ->
        let l = ref [] in
        Array.iteri
          (fun i x -> if inp.ops.Inputs.kind.(i) = k then l := x :: !l)
          r.lat;
        Array.of_list !l
  in
  Array.sort compare xs;
  xs

let vkops (r : round) = float_of_int r.n /. (float_of_int r.dur_ns *. 1e-9) /. 1e3

let waf (r : round) = float_of_int r.ssd_bytes /. float_of_int r.user_bytes

(* Everything a round determines in virtual time, rendered exactly: two
   rounds of one seed must produce the same digest, traced or not. *)
let digest (r : round) (inp : inputs) =
  let s = sorted_lat r inp in
  let sum = Array.fold_left ( + ) 0 r.lat in
  Printf.sprintf "n=%d dur=%d sum=%d p50=%s p99=%s p999=%s bytes=%d/%d c=%d a=%d"
    r.n r.dur_ns sum
    (Option.fold ~none:"-" ~some:string_of_int (percentile s 50.0))
    (Option.fold ~none:"-" ~some:string_of_int (percentile s 99.0))
    (Option.fold ~none:"-" ~some:string_of_int (percentile s 99.9))
    r.ssd_bytes r.user_bytes r.commits r.aborts

(* ---- the checker workload ---- *)

type walk = {
  setup_cpu : float;  (** host CPU s of one checked seeded schedule per walk *)
  walk_cpu : float array;  (** host CPU s of each walk *)
  words : float;
  classes : int;
  runs : int;
  pruned : int;
  ops : int;  (** client ops in the explored classes *)
  violations : int;  (** non-linearizable schedules the checker reported *)
  unconfirmed : int;  (** reported violations that did not replay *)
  heap_words : int;  (** peak major-heap growth over the first walk *)
}

(* [walk cfg ~seeds ~max_classes] checks one seeded schedule of each
   seed's workload (the set-up), then walks up to [max_classes] DPOR
   classes per seed. The checker's report is its output: a violation it
   finds is a result, not a failure, but with [confirm] every reported
   violation must reproduce when replayed. *)
let walk ?(confirm = false) (cfg : Explore.config) ~seeds ~max_classes =
  Gc.compact ();
  let c0 = cpu_now () in
  let firsts =
    List.map
      (fun seed ->
        let cfg = { cfg with Explore.seed } in
        (cfg, Explore.run ~schedules:1 cfg))
      seeds
  in
  let setup_cpu = cpu_now () -. c0 in
  let base = (Gc.quick_stat ()).Gc.heap_words in
  let w0 = Gc.minor_words () in
  let heap = ref 0 in
  let timed =
    List.map
      (fun seed ->
        (* Each walk starts from a collected heap, so its peak does not
           depend on when the previous walk's garbage is collected. *)
        Gc.full_major ();
        let c = cpu_now () in
        let cfg = { cfg with Explore.seed } in
        let r = Explore.run_dpor ~jobs:1 ~max_classes cfg in
        if !heap = 0 then heap := (Gc.quick_stat ()).Gc.top_heap_words - base;
        ((cfg, r), cpu_now () -. c))
      seeds
  in
  let words = Gc.minor_words () -. w0 in
  let reports = List.map fst timed in
  let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 reports in
  let classes = sum (fun r -> r.Explore.classes) in
  let count f xs = List.fold_left (fun a x -> if f x then a + 1 else a) 0 xs in
  let unconfirmed =
    if not confirm then 0
    else
      List.fold_left
        (fun a (cfg, r) ->
          a
          + count
              (fun f -> Explore.replay cfg ~tie_seed:f.Explore.stats.Explore.tie_seed = None)
              r.Explore.failures)
        0 firsts
      + List.fold_left
          (fun a (cfg, r) ->
            a
            + count
                (fun f -> Explore.replay_choices cfg ~choices:f.Explore.choices = None)
                r.Explore.dpor_failures)
          0 reports
  in
  {
    setup_cpu;
    walk_cpu = Array.of_list (List.map snd timed);
    words;
    classes;
    runs = sum (fun r -> r.Explore.runs);
    pruned = sum (fun r -> r.Explore.pruned);
    ops = classes * cfg.Explore.threads * cfg.Explore.ops_per_thread;
    violations =
      List.fold_left (fun a (_, r) -> a + List.length r.Explore.failures) 0 firsts
      + sum (fun r -> List.length r.Explore.dpor_failures);
    unconfirmed;
    heap_words = !heap;
  }

let walk_digest w =
  Printf.sprintf "classes=%d runs=%d pruned=%d violations=%d" w.classes w.runs
    w.pruned w.violations
