open Prism_sim
open Prism_device
open Prism_media

type stats = {
  puts : int;
  gets : int;
  deletes : int;
  scans : int;
  svc_hits : int;
  pwb_hits : int;
  vs_reads : int;
  misses : int;
}

(* The live counters behind [stats] snapshots. Registered by reference in
   the engine's metric registry (under "prism.*") so harness code reads
   them uniformly; the hot paths keep bumping plain counters. *)
type op_counters = {
  c_puts : Metric.Counter.t;
  c_gets : Metric.Counter.t;
  c_deletes : Metric.Counter.t;
  c_scans : Metric.Counter.t;
  c_svc_hits : Metric.Counter.t;
  c_pwb_hits : Metric.Counter.t;
  c_vs_reads : Metric.Counter.t;
  c_misses : Metric.Counter.t;
  c_put_bytes : Metric.Counter.t; (* application value bytes: WAF denominator *)
}

type read_path = Tc of Tcq.t | Ta of Ta_batcher.t

(* The Persistent Key Index behind a uniform face: the paper's design has
   no dependency on a particular range index (§4.1, §6), and the library
   ships two — a B+-tree and an adaptive radix tree. *)
type key_index = {
  ki_find : string -> int option;
  ki_insert : string -> int -> int option;
  ki_delete : string -> bool;
  ki_scan : from:string -> count:int -> (string -> int -> unit) -> unit;
  ki_bindings : unit -> (string * int) list;
  ki_length : unit -> int;
  ki_bytes : unit -> int;
}

let btree_index ~on_access =
  let t = Prism_index.Btree.create ~on_access () in
  {
    ki_find = Prism_index.Btree.find t;
    ki_insert = Prism_index.Btree.insert t;
    ki_delete = Prism_index.Btree.delete t;
    ki_scan = Prism_index.Btree.iter_range t;
    ki_bindings =
      (fun () ->
        List.rev (Prism_index.Btree.fold t [] (fun acc k v -> (k, v) :: acc)));
    ki_length = (fun () -> Prism_index.Btree.length t);
    ki_bytes = (fun () -> Prism_index.Btree.approx_bytes t);
  }

let art_index ~on_access =
  let t = Prism_index.Art.create ~on_access () in
  {
    ki_find = Prism_index.Art.find t;
    ki_insert = Prism_index.Art.insert t;
    ki_delete = Prism_index.Art.delete t;
    ki_scan = Prism_index.Art.iter_range t;
    ki_bindings =
      (fun () ->
        List.rev (Prism_index.Art.fold t [] (fun acc k v -> (k, v) :: acc)));
    ki_length = (fun () -> Prism_index.Art.length t);
    ki_bytes = (fun () -> Prism_index.Art.approx_bytes t);
  }

(* One thread's scan buffers, replaced by a larger one when a scan
   needs more room, so they grow to the largest scan the thread has run
   (one op per thread at a time: [Epoch.pin] refuses a second). A scan
   uses the first [n] cells of the per-binding arrays and the first
   cells of the per-chunk ones, and leaves no key or value behind when
   it returns. *)
type scratch = {
  mutable n : int; (* bindings the index walk has delivered *)
  keys : string array;
  ids : int array;
  values : bytes array; (* empty until found *)
  words : int array; (* a value's SSD slot word, or -1 *)
  chain : int array; (* SVC entries admitted, in link order *)
  pending : int array; (* bindings read from one storage *)
  starts : int array; (* chunk groups of [pending], one longer *)
  bucket : int array; (* per chunk group *)
  submit_order : int array; (* chunk groups in submission order *)
  handles : int array; (* read handles, in submission order *)
  mutable requests : Io_uring.request array;
      (* their requests; filled with the first one on first use *)
  collect : string -> int -> unit; (* the index walk's callback *)
}

let scratch cap =
  let keys = Array.make cap "" and ids = Array.make cap 0 in
  let rec s =
    {
      n = 0;
      keys;
      ids;
      values = Array.make cap Bytes.empty;
      words = Array.make cap (-1);
      chain = Array.make cap 0;
      pending = Array.make cap 0;
      starts = Array.make (cap + 1) 0;
      bucket = Array.make cap 0;
      submit_order = Array.make cap 0;
      handles = Array.make cap 0;
      requests = [||];
      collect =
        (fun k id ->
          keys.(s.n) <- k;
          ids.(s.n) <- id;
          s.n <- s.n + 1);
    }
  in
  s

(* What a thread holds before its first scan: too small for any scan,
   so never used. *)
let no_scratch = scratch 0

type t = {
  engine : Engine.t;
  cfg : Config.t;
  nvm : Nvm.t;
  hsit : Hsit.t;
  epoch : Epoch.t;
  index : key_index;
  index_reads : int ref;
  index_writes : int ref;
  vss : Value_storage.t array;
  read_paths : read_path array;
  pwbs : Pwb.t array;
  reclaimers : Reclaimer.t array;
  svc : Svc.t option;
  rng : Rng.t;
  ctr : op_counters;
  flush : float array; (* one cell: [charge_index]'s flush, unboxed *)
  free_hsit : int -> unit; (* [Hsit.free hsit], built once for [Epoch.retire] *)
  scans : scratch array;
      (* per thread id, as many as [epoch] has; [no_scratch] until the
         thread's first scan *)
}

let stats t =
  let v = Metric.Counter.value in
  {
    puts = v t.ctr.c_puts;
    gets = v t.ctr.c_gets;
    deletes = v t.ctr.c_deletes;
    scans = v t.ctr.c_scans;
    svc_hits = v t.ctr.c_svc_hits;
    pwb_hits = v t.ctr.c_pwb_hits;
    vs_reads = v t.ctr.c_vs_reads;
    misses = v t.ctr.c_misses;
  }

let config t = t.cfg

let svc t = t.svc

let value_storages t = t.vss

let nvm t = t.nvm

(* The Key Index is charged as NVM traffic, but its structural mutations
   must be atomic with respect to the cooperative scheduler (PACTree is
   lock-free; our B+-tree is not). So node visits only *accumulate* sizes,
   and the accumulated traffic is billed in one access after the index
   operation completes. *)
let charge_index t =
  let r = !(t.index_reads) and w = !(t.index_writes) in
  t.index_reads := 0;
  t.index_writes := 0;
  if r > 0 then Model.access (Nvm.device t.nvm) Model.Read ~size:r;
  if w > 0 then begin
    Model.access (Nvm.device t.nvm) Model.Write ~size:w;
    t.flush.(0) <-
      Cost.default.Cost.flush_line
      *. float_of_int (Prism_sim.Bits.ceil_div w 64)
      +. Cost.default.Cost.fence;
    Engine.delay_cell t.flush 0
  end

(* Release the Value Storage slot a superseded location word names. *)
let invalidate_old t w =
  if Location.is_vs w then
    Value_storage.set_valid
      t.vss.(Location.vs_id w)
      ~gen:(Location.vs_gen w) ~chunk:(Location.vs_chunk w)
      ~slot:(Location.vs_slot w) false

let repoint t ~hsit_id ~from_ ~to_ =
  Hsit.update_primary_word t.hsit hsit_id ~expect:from_ to_

let reorganize_members t (members : Svc.member array) =
  (* Sort-on-evict write-back (§4.4): rewrite a scan chain contiguously
     into Value Storage. Members arrive sorted by key. *)
  let budget = t.cfg.Config.chunk_size - (4 * 16) in
  let n = Array.length members in
  let m =
    {
      Value_storage.ids = Array.map (fun m -> m.Svc.hsit_id) members;
      values = Array.map (fun m -> m.Svc.value) members;
      froms = Array.map (fun m -> m.Svc.cached_from) members;
      count = n;
    }
  in
  let flush pos stop =
    if stop > pos then begin
      let vs = Value_storage.pick t.rng t.vss in
      Value_storage.install vs m ~pos ~len:(stop - pos) ~repoint:(repoint t)
        ~moved:(invalidate_old t);
      Value_storage.poke_gc vs
    end
  in
  let rec batch_up pos i bytes =
    if i = n then flush pos n
    else begin
      let sz = 16 + Prism_sim.Bits.round_up (Bytes.length m.values.(i)) 16 in
      if bytes + sz > budget && i > pos then begin
        flush pos i;
        batch_up i (i + 1) sz
      end
      else batch_up pos (i + 1) (bytes + sz)
    end
  in
  batch_up 0 0 0

let length t = t.index.ki_length ()

let nvm_index_bytes t = t.index.ki_bytes () + Hsit.bytes t.hsit

let ssd_bytes_written t =
  Array.fold_left
    (fun acc vs -> acc + Model.bytes_written (Value_storage.device vs))
    0 t.vss

let gc_runs t =
  Array.fold_left (fun acc vs -> acc + Value_storage.gc_runs vs) 0 t.vss

let reclaiming t = Array.exists Reclaimer.in_pass t.reclaimers

let reclaim_stats t =
  Array.fold_left
    (fun (m, d) r ->
      (m + Reclaimer.reclaimed_values r, d + Reclaimer.skipped_dead r))
    (0, 0) t.reclaimers

let mean_read_batch t =
  let reqs, batches =
    Array.fold_left
      (fun (r, b) -> function
        | Tc tcq -> (r + Tcq.requests tcq, b + Tcq.batches tcq)
        | Ta ta -> (r + Ta_batcher.requests ta, b + Ta_batcher.batches ta))
      (0, 0) t.read_paths
  in
  if batches = 0 then 0.0 else float_of_int reqs /. float_of_int batches

(* Publish every subsystem's accounting in the engine's registry under
   "prism.*". Counters are adopted by reference (hot paths keep their
   fields); cross-instance aggregates are gauges sampled at snapshot
   time. If several Prism stores share one engine, the last one created
   owns the names. *)
let register_telemetry t =
  let reg = Engine.stats t.engine in
  let c = t.ctr in
  Stats.register_counter reg "prism.ops.puts" c.c_puts;
  Stats.register_counter reg "prism.ops.gets" c.c_gets;
  Stats.register_counter reg "prism.ops.deletes" c.c_deletes;
  Stats.register_counter reg "prism.ops.scans" c.c_scans;
  Stats.register_counter reg "prism.ops.misses" c.c_misses;
  Stats.register_counter reg "prism.ops.put_bytes" c.c_put_bytes;
  Stats.register_counter reg "prism.svc.hits" c.c_svc_hits;
  Stats.register_counter reg "prism.pwb.hits" c.c_pwb_hits;
  Stats.register_counter reg "prism.vs.reads" c.c_vs_reads;
  (match t.svc with
  | Some svc -> Svc.register_stats svc reg ~prefix:"prism.svc"
  | None -> ());
  Array.iteri
    (fun i rp ->
      let prefix = Printf.sprintf "prism.tcq.%d" i in
      match rp with
      | Tc tcq -> Tcq.register_stats tcq reg ~prefix
      | Ta ta -> Ta_batcher.register_stats ta reg ~prefix)
    t.read_paths;
  Stats.gauge_int reg "prism.tcq.batches" (fun () ->
      Array.fold_left
        (fun acc -> function
          | Tc q -> acc + Tcq.batches q
          | Ta a -> acc + Ta_batcher.batches a)
        0 t.read_paths);
  Stats.gauge_int reg "prism.tcq.requests" (fun () ->
      Array.fold_left
        (fun acc -> function
          | Tc q -> acc + Tcq.requests q
          | Ta a -> acc + Ta_batcher.requests a)
        0 t.read_paths);
  Stats.gauge_float reg "prism.tcq.mean_batch" (fun () -> mean_read_batch t);
  Array.iter
    (fun vs ->
      Value_storage.register_stats vs reg
        ~prefix:(Printf.sprintf "prism.vs.%d" (Value_storage.id vs)))
    t.vss;
  Stats.gauge_int reg "prism.vs_gc.runs" (fun () -> gc_runs t);
  Stats.gauge_int reg "prism.reclaim.migrated" (fun () ->
      fst (reclaim_stats t));
  Stats.gauge_int reg "prism.reclaim.dead" (fun () -> snd (reclaim_stats t));
  Stats.gauge_int reg "prism.pwb.used_bytes" (fun () ->
      Array.fold_left (fun acc p -> acc + Pwb.used p) 0 t.pwbs);
  Stats.gauge_float reg "prism.pwb.max_utilization" (fun () ->
      Array.fold_left (fun acc p -> Float.max acc (Pwb.utilization p)) 0.0
        t.pwbs);
  Stats.gauge_int reg "prism.index.entries" (fun () -> length t);
  Stats.gauge_int reg "prism.index.nvm_bytes" (fun () -> nvm_index_bytes t);
  Nvm.register_stats t.nvm reg ~prefix:"prism.device.nvm";
  Stats.gauge_int reg "prism.device.ssd.bytes_written" (fun () ->
      ssd_bytes_written t);
  Stats.gauge_int reg "prism.device.ssd.bytes_read" (fun () ->
      Array.fold_left
        (fun acc vs -> acc + Model.bytes_read (Value_storage.device vs))
        0 t.vss);
  Stats.gauge_float reg "prism.device.ssd.waf" (fun () ->
      let app = Metric.Counter.value c.c_put_bytes in
      if app = 0 then 0.0
      else float_of_int (ssd_bytes_written t) /. float_of_int app)

let create engine cfg =
  Config.validate cfg;
  let nvm =
    Nvm.create engine ~spec:cfg.Config.nvm_spec
      ~size:cfg.Config.nvm_size ()
  in
  let hsit =
    Hsit.create ~fault_skip_flush:cfg.Config.fault_skip_hsit_flush nvm
      ~capacity:cfg.Config.hsit_capacity
  in
  let threads = cfg.Config.threads + cfg.Config.num_value_storages + 2 in
  let epoch = Epoch.create ~threads in
  let index_reads = ref 0 and index_writes = ref 0 in
  let on_access kind bytes =
    match kind with
    | `Read -> index_reads := !index_reads + bytes
    | `Write -> index_writes := !index_writes + bytes
  in
  let index =
    match cfg.Config.key_index with
    | `Btree -> btree_index ~on_access
    | `Art -> art_index ~on_access
  in
  let vss =
    Array.init cfg.Config.num_value_storages (fun i ->
        Value_storage.create engine ~id:i ~size:cfg.Config.vs_size
          ~chunk_size:cfg.Config.chunk_size
          ~queue_depth:cfg.Config.queue_depth ~spec:Spec.samsung_980_pro
          ~cost:Cost.default)
  in
  let read_paths =
    Array.map
      (fun vs ->
        if cfg.Config.use_thread_combining then
          Tc
            (Tcq.create (Value_storage.uring vs)
               ~limit:cfg.Config.queue_depth ~cost:Cost.default)
        else begin
          let ta =
            Ta_batcher.create engine (Value_storage.uring vs)
              ~limit:cfg.Config.queue_depth ~cost:Cost.default
          in
          Ta_batcher.start ta;
          Ta ta
        end)
      vss
  in
  let rng = Rng.create cfg.Config.seed in
  let pwbs =
    Array.init cfg.Config.threads (fun i ->
        Pwb.create nvm ~thread:i ~size:cfg.Config.pwb_size)
  in
  let reclaimers =
    Array.map
      (fun pwb ->
        Reclaimer.create engine ~pwb ~hsit ~storages:vss
          ~rng:(Rng.split rng))
      pwbs
  in
  if cfg.Config.async_reclaim then Array.iter Reclaimer.start reclaimers;
  let svc =
    if cfg.Config.use_svc then begin
      let svc =
        Svc.create engine ~capacity:cfg.Config.svc_capacity
          ~cost:Cost.default ~epoch ~hsit
      in
      Svc.start_manager svc;
      Some svc
    end
    else None
  in
  let t =
    {
      engine;
      cfg;
      nvm;
      hsit;
      epoch;
      index;
      index_reads;
      index_writes;
      vss;
      read_paths;
      pwbs;
      reclaimers;
      svc;
      rng;
      ctr =
        {
          c_puts = Metric.Counter.create ();
          c_gets = Metric.Counter.create ();
          c_deletes = Metric.Counter.create ();
          c_scans = Metric.Counter.create ();
          c_svc_hits = Metric.Counter.create ();
          c_pwb_hits = Metric.Counter.create ();
          c_vs_reads = Metric.Counter.create ();
          c_misses = Metric.Counter.create ();
          c_put_bytes = Metric.Counter.create ();
        };
      flush = [| 0.0 |];
      free_hsit = Hsit.free hsit;
      scans = Array.make threads no_scratch;
    }
  in
  (match (svc, cfg.Config.scan_reorganize) with
  | Some svc, true -> Svc.set_reorganize svc (reorganize_members t)
  | Some _, false | None, _ -> ());
  Array.iter (fun vs -> Value_storage.start_gc vs ~relocate:(repoint t)) vss;
  register_telemetry t;
  t

let read_vs t ~vs r =
  match t.read_paths.(vs) with
  | Tc tcq -> Tcq.read_request tcq r
  | Ta ta -> Ta_batcher.read_request ta r

let read_vs_many t ~vs reqs n =
  match t.read_paths.(vs) with
  | Tc tcq -> Tcq.read_requests tcq reqs n
  | Ta ta -> Ta_batcher.read_requests ta reqs n

(* ---- write path (§5.4, §5.5) ---- *)

(* Each operation pins its thread's epoch around its body and unpins on
   every way out, an exception (a crash cut) included. *)
let unpin_raise t ~tid e =
  let bt = Printexc.get_raw_backtrace () in
  Epoch.unpin t.epoch ~tid;
  Printexc.raise_with_backtrace e bt

let put_pinned t ~tid key value =
  let found = t.index.ki_find key in
  charge_index t;
  match found with
  | Some id ->
      (* Update: value to PWB first (durability), then repoint HSIT —
         the linearization point (§5.4). *)
      let voff = Pwb.append t.pwbs.(tid) ~hsit_id:id ~value in
      (* The read's charge and flush-on-read are part of the modelled
         put, but the home it names may move while it is in flight:
         release the one the swap replaces. *)
      ignore (Hsit.read_primary_word t.hsit id : int);
      let old =
        Hsit.exchange_primary_word t.hsit id
          (Location.pwb_word ~thread:tid ~voff)
      in
      invalidate_old t old;
      (match t.svc with
      | Some svc when not t.cfg.Config.fault_skip_svc_invalidate ->
          Svc.invalidate svc ~hsit_id:id
      | Some _ | None -> ());
      Reclaimer.maybe_trigger t.reclaimers.(tid)
  | None ->
      let id = Hsit.alloc t.hsit in
      let voff = Pwb.append t.pwbs.(tid) ~hsit_id:id ~value in
      ignore
        (Hsit.exchange_primary_word t.hsit id
           (Location.pwb_word ~thread:tid ~voff)
          : int);
      let prev = t.index.ki_insert key id in
      charge_index t;
      (match prev with
      | None -> ()
      | Some other ->
          (* A concurrent insert of the same key slipped in between
             our lookup and our insert; its entry is now unreachable.
             Retire it after two epochs. *)
          Epoch.retire t.epoch t.free_hsit other);
      Reclaimer.maybe_trigger t.reclaimers.(tid)

let put t ~tid key value =
  if Bytes.length value = 0 then invalid_arg "Store.put: empty value";
  Metric.Counter.incr t.ctr.c_puts;
  Metric.Counter.add t.ctr.c_put_bytes (Bytes.length value);
  Epoch.pin t.epoch ~tid;
  match put_pinned t ~tid key value with
  | () -> Epoch.unpin t.epoch ~tid
  | exception e -> unpin_raise t ~tid e

let delete_pinned t key =
  (* Lookup and removal happen back-to-back with no suspension point,
     so the id we retire is exactly the binding we removed — a yield
     in between would let a concurrent delete+reinsert swap the
     binding and leak its HSIT entry. *)
  let found = t.index.ki_find key in
  let removed = match found with Some _ -> t.index.ki_delete key | None -> false in
  charge_index t;
  match found with
  | None -> false
  | Some id ->
      if not removed then false
      else begin
        (match t.svc with
        | Some svc when not t.cfg.Config.fault_skip_svc_invalidate ->
            Svc.invalidate svc ~hsit_id:id
        | Some _ | None -> ());
        ignore (Hsit.read_primary_word t.hsit id : int);
        let old =
          Hsit.exchange_primary_word t.hsit id Location.nowhere_word
        in
        invalidate_old t old;
        Epoch.retire t.epoch t.free_hsit id;
        true
      end

let delete t ~tid key =
  Metric.Counter.incr t.ctr.c_deletes;
  Epoch.pin t.epoch ~tid;
  match delete_pinned t key with
  | removed ->
      Epoch.unpin t.epoch ~tid;
      removed
  | exception e -> unpin_raise t ~tid e

(* ---- read path (§4.4, §5.3) ---- *)

(* What [resolve] found besides a Value Storage slot, whose clean HSIT
   word (never negative) it returns instead. *)
let hit = -1 (* served by the SVC or a PWB *)

let moved = -2 (* the value moved while we followed its pointer *)

let absent = -3

(* The reader side of §5.4: follow the HSIT entry of [id] to the one home
   of its value, bumping the hit counter of the home that served it. A
   hit leaves the value in [values.(i)]; an SSD slot is returned as its
   word, and reading it is left to the caller, which may batch reads. A
   point read retries on [moved]. [skip_pwb] is the [fault_scan_skip_pwb]
   injection: the write buffer looks empty. *)
let resolve t ~skip_pwb ~id ~values ~i =
  let cached =
    match t.svc with
    | None -> Bytes.empty
    | Some svc ->
        let idx = Hsit.svc_index t.hsit id in
        if idx < 0 then Bytes.empty else Svc.lookup_value svc ~idx ~hsit_id:id
  in
  if Bytes.length cached > 0 then begin
    Metric.Counter.incr t.ctr.c_svc_hits;
    values.(i) <- cached;
    hit
  end
  else begin
    let w = Hsit.read_primary_word t.hsit id in
    if Location.is_pwb w then begin
      let pwb = t.pwbs.(Location.pwb_thread w) and voff = Location.pwb_voff w in
      if skip_pwb || voff < Pwb.head pwb then moved
      else begin
        let payload = Pwb.read pwb ~voff ~hsit_id:id in
        if Bytes.length payload = 0 then moved
        else begin
          Metric.Counter.incr t.ctr.c_pwb_hits;
          values.(i) <- payload;
          hit
        end
      end
    end
    else if Location.is_vs w then
      if
        Value_storage.backptr
          t.vss.(Location.vs_id w)
          ~gen:(Location.vs_gen w) ~chunk:(Location.vs_chunk w)
          ~slot:(Location.vs_slot w)
        = id
      then w
      else moved
    else absent
  end

(* Cache a value read from the slot [word] names; the SVC index, or -1. *)
let admit_to_svc t ~id ~key ~value ~word =
  match t.svc with
  | None -> -1
  | Some svc ->
      let idx = Svc.admit_index svc ~hsit_id:id ~key ~value ~from_:word in
      if idx < 0 then -1
      else if Hsit.read_primary_word t.hsit id = word then idx
      else begin
        (* Verify-after-publish: if a writer moved the value while we
           were caching it, unpublish our stale copy. The writer's own
           invalidate covers the symmetric interleaving. *)
        Svc.invalidate svc ~hsit_id:id;
        -1
      end

let livelock t ~id ~key =
  let detail =
    match Hsit.read_primary t.hsit id with
    | Location.In_pwb { thread; voff } ->
        Printf.sprintf "pwb[%d]@%d head=%d tail=%d" thread voff
          (Pwb.head t.pwbs.(thread))
          (Pwb.tail t.pwbs.(thread))
    | Location.In_vs { vs; gen; chunk; slot } ->
        Printf.sprintf "vs[%d]chunk%d gen%d (cur gen%d) slot%d free=%d" vs
          chunk gen
          (Value_storage.chunk_gen t.vss.(vs) ~chunk)
          slot
          (Value_storage.free_chunks t.vss.(vs))
    | Location.Nowhere -> "nowhere"
  in
  failwith
    (Printf.sprintf "Store.get livelock: key=%s id=%d loc=%s" key id detail)

(* The [order] of a one-slot read: binding 0. *)
let first_only = [| 0 |]

let get_resolved t ~id ~key =
  let values = [| Bytes.empty |] and words = [| Location.nowhere_word |] in
  let rec attempt n =
    if n > 1000 then livelock t ~id ~key;
    let r = resolve t ~skip_pwb:false ~id ~values ~i:0 in
    if r = hit then Some values.(0)
    else if r = absent then None
    else if r = moved then attempt (n + 1)
    else begin
      let vs = Location.vs_id r in
      let storage = t.vss.(vs) in
      words.(0) <- r;
      let k =
        Value_storage.read_run storage ~gen:(Location.vs_gen r)
          ~chunk:(Location.vs_chunk r) ~words ~values ~order:first_only
          ~pos:0 ~len:1
      in
      if k < 0 then attempt (n + 1)
      else begin
        read_vs t ~vs (Value_storage.read_request storage k);
        Value_storage.release_read storage k;
        Metric.Counter.incr t.ctr.c_vs_reads;
        let value = values.(0) in
        if Bytes.length value = 0 then
          (* The chunk was recycled while the IO was in flight; retry
             from HSIT. *)
          attempt (n + 1)
        else begin
          ignore (admit_to_svc t ~id ~key ~value ~word:r : int);
          Some value
        end
      end
    end
  in
  attempt 0

let get_pinned t key =
  let found = t.index.ki_find key in
  charge_index t;
  match found with
  | None ->
      Metric.Counter.incr t.ctr.c_misses;
      None
  | Some id -> (
      match get_resolved t ~id ~key with
      | None ->
          Metric.Counter.incr t.ctr.c_misses;
          None
      | Some v -> Some v)

let get t ~tid key =
  Metric.Counter.incr t.ctr.c_gets;
  Epoch.pin t.epoch ~tid;
  match get_pinned t key with
  | v ->
      Epoch.unpin t.epoch ~tid;
      v
  | exception e -> unpin_raise t ~tid e

(* ---- scan (§4.4) ---- *)

(* Whether SSD word [a] names a later (gen, chunk) than [b]. *)
let chunk_after a b =
  let ga = Location.vs_gen a and gb = Location.vs_gen b in
  ga > gb || (ga = gb && Location.vs_chunk a > Location.vs_chunk b)

(* Whether chunk group [a] is submitted before group [b]: the higher
   bucket first, then the group whose last binding comes later. *)
let submits_before s a b =
  let ba = s.bucket.(a) and bb = s.bucket.(b) in
  ba > bb
  || ba = bb
     && s.pending.(s.starts.(a + 1) - 1) > s.pending.(s.starts.(b + 1) - 1)

(* The SSD reads of the bindings [s.pending.(0 .. len - 1)] (indices into
   [s.words], all on storage [vs], ascending): one read per chunk, its
   handle and request left in [s.handles] and [s.requests] in submission
   order. Returns how many.

   Reads of one chunk share an entry, so values a previous scan's
   reorganization placed contiguously cost one IO for the whole run
   (§4.4 "reduces SSD IO for subsequent scan operations"). The order of
   the entries is the fold order of the per-chunk [Hashtbl] this scan
   once grouped its reads in, and it sets the order of the IOs, so
   virtual time depends on it: descending bucket of [Hashtbl.hash (gen,
   chunk)] in a table of [16 * 2^k] buckets (the fewest holding the
   chunks at two per bucket), then the chunk whose last binding comes
   later first. Both sorts are insertion sorts in place: the first is
   stable and the second's order is total, so each has one result. *)
let chunk_reads t ~vs s len =
  let words = s.words and pending = s.pending and starts = s.starts in
  for k = 1 to len - 1 do
    let x = pending.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && chunk_after words.(pending.(!j)) words.(x) do
      pending.(!j + 1) <- pending.(!j);
      decr j
    done;
    pending.(!j + 1) <- x
  done;
  (* Runs of one chunk: [starts.(g) .. starts.(g + 1) - 1]. *)
  let groups = ref 0 in
  for k = 0 to len - 1 do
    if
      k = 0
      || Location.vs_chunk words.(pending.(k))
         <> Location.vs_chunk words.(pending.(k - 1))
      || Location.vs_gen words.(pending.(k))
         <> Location.vs_gen words.(pending.(k - 1))
    then begin
      starts.(!groups) <- k;
      incr groups
    end
  done;
  let groups = !groups in
  starts.(groups) <- len;
  let buckets = ref 16 in
  while groups > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  for g = 0 to groups - 1 do
    let r = words.(pending.(starts.(g))) in
    s.bucket.(g) <-
      Hashtbl.hash (Location.vs_gen r, Location.vs_chunk r)
      land (!buckets - 1)
  done;
  let order = s.submit_order in
  for g = 0 to groups - 1 do
    let j = ref (g - 1) in
    while !j >= 0 && submits_before s g order.(!j) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- g
  done;
  let storage = t.vss.(vs) and reads = ref 0 in
  for k = 0 to groups - 1 do
    let g = order.(k) in
    let r = words.(pending.(starts.(g))) in
    let h =
      Value_storage.read_run storage ~gen:(Location.vs_gen r)
        ~chunk:(Location.vs_chunk r) ~words ~values:s.values ~order:pending
        ~pos:starts.(g)
        ~len:(starts.(g + 1) - starts.(g))
    in
    if h >= 0 then begin
      let req = Value_storage.read_request storage h in
      if Array.length s.requests < Array.length s.handles then
        s.requests <- Array.make (Array.length s.handles) req;
      s.handles.(!reads) <- h;
      s.requests.(!reads) <- req;
      incr reads
    end
  done;
  !reads

let scan_pinned t ~tid key count =
  (* The bindings, then each one's value (empty until found) and, for
     a value on SSD, its slot's word (-1 otherwise): flat arrays in the
     thread's scratch, one cell per binding. *)
  let cap = max 1 (min count (t.index.ki_length ())) in
  if Array.length t.scans.(tid).keys < cap then t.scans.(tid) <- scratch cap;
  let s = t.scans.(tid) in
  s.n <- 0;
  t.index.ki_scan ~from:key ~count s.collect;
  charge_index t;
  let n = s.n in
  let keys = s.keys and ids = s.ids and values = s.values
  and words = s.words in
  (* A scan an exception cut short left its cells as they were. *)
  for i = 0 to n - 1 do
    values.(i) <- Bytes.empty;
    words.(i) <- -1
  done;
  let on_ssd = Array.make (Array.length t.vss) 0 in
  for i = 0 to n - 1 do
    let r =
      resolve t ~skip_pwb:t.cfg.Config.fault_scan_skip_pwb ~id:ids.(i)
        ~values ~i
    in
    if r >= 0 then begin
      words.(i) <- r;
      let vs = Location.vs_id r in
      on_ssd.(vs) <- on_ssd.(vs) + 1
    end
  done;
  (* Coalesce reads per storage and per chunk. *)
  for vs = 0 to Array.length on_ssd - 1 do
    let reads = on_ssd.(vs) in
    if reads > 0 then begin
      Metric.Counter.add t.ctr.c_vs_reads reads;
      let k = ref 0 in
      for i = 0 to n - 1 do
        if words.(i) >= 0 && Location.vs_id words.(i) = vs then begin
          s.pending.(!k) <- i;
          incr k
        end
      done;
      let storage = t.vss.(vs) in
      let m = chunk_reads t ~vs s reads in
      read_vs_many t ~vs s.requests m;
      for k = 0 to m - 1 do
        Value_storage.release_read storage s.handles.(k)
      done
    end
  done;
  (* Admit fetched values, storage by storage and last binding first,
     and link the whole range into a scan chain so an eviction
     rewrites them contiguously (§4.4). *)
  let chain = s.chain and linked = ref 0 in
  for vs = 0 to Array.length on_ssd - 1 do
    if on_ssd.(vs) > 0 then
      for i = n - 1 downto 0 do
        let r = words.(i) in
        if r >= 0 && Location.vs_id r = vs && Bytes.length values.(i) > 0
        then begin
          let idx =
            admit_to_svc t ~id:ids.(i) ~key:keys.(i) ~value:values.(i)
              ~word:r
          in
          if idx >= 0 then begin
            chain.(!linked) <- idx;
            incr linked
          end
        end
      done
  done;
  (match t.svc with
  | Some svc when t.cfg.Config.scan_reorganize && !linked >= 2 ->
      Svc.link_chain svc chain !linked
  | Some _ | None -> ());
  (* Read-repair: a value can move while [resolve] follows it — PWB
     reclamation advances [head] past the recorded offset, or the VS
     chunk is recycled before the batched IO lands — and the binding
     is left unresolved. The point read retries
     in exactly these cases (see [get_resolved]); without the same
     care here a scan silently omits a live key. Re-resolve leftovers
     through the retrying read; a key that is genuinely gone resolves
     to [Nowhere] and stays out of the result. Skipped under the
     [fault_scan_skip_pwb] injection, which exists to demonstrate the
     omission. *)
  if not t.cfg.Config.fault_scan_skip_pwb then
    for i = 0 to n - 1 do
      if Bytes.length values.(i) = 0 then
        match get_resolved t ~id:ids.(i) ~key:keys.(i) with
        | Some value -> values.(i) <- value
        | None -> ()
    done;
  let items = ref [] in
  for i = n - 1 downto 0 do
    if Bytes.length values.(i) > 0 then
      items := (keys.(i), values.(i)) :: !items;
    keys.(i) <- "";
    values.(i) <- Bytes.empty
  done;
  !items

let scan t ~tid key count =
  Metric.Counter.incr t.ctr.c_scans;
  Epoch.pin t.epoch ~tid;
  match scan_pinned t ~tid key count with
  | items ->
      Epoch.unpin t.epoch ~tid;
      items
  | exception e -> unpin_raise t ~tid e

(* ---- crash & recovery (§5.5) ---- *)

let crash t =
  Nvm.crash t.nvm;
  (match t.svc with Some svc -> Svc.clear svc | None -> ());
  Epoch.reset t.epoch

let recover t =
  (* 1. Full scan of the (crash-consistent) Key Index for reachable HSIT
     entries; the paper parallelizes this over key ranges — virtual time
     charges the same total work. *)
  let reachable = Hashtbl.create 4096 in
  let bindings = t.index.ki_bindings () in
  (* Bulk charge for the full index scan (leaf walk at NVM bandwidth). *)
  Model.access (Nvm.device t.nvm) Model.Read ~size:(t.index.ki_bytes ());
  List.iter (fun (_, id) -> Hashtbl.replace reachable id ()) bindings;
  (* 2. Re-initialize reachable entries (clears dirty bits, nullifies SVC
     pointers) and validate PWB couplings. *)
  let pwb_ranges = Array.make (Array.length t.pwbs) None in
  let lost = ref [] in
  let found = [| -1 |] in
  List.iter
    (fun (key, id) ->
      Hsit.recover_entry t.hsit id;
      match Hsit.durable_primary t.hsit id with
      | Location.Nowhere -> lost := (key, id) :: !lost
      | Location.In_pwb { thread; voff } ->
          let payload = Pwb.read_durable t.pwbs.(thread) ~voff found in
          if found.(0) = id then begin
            let extent = Pwb.record_extent ~len:(Bytes.length payload) in
            let lo, hi =
              match pwb_ranges.(thread) with
              | None -> (voff, voff + extent)
              | Some (lo, hi) -> (min lo voff, max hi (voff + extent))
            in
            pwb_ranges.(thread) <- Some (lo, hi)
          end
          else lost := (key, id) :: !lost
      | Location.In_vs _ ->
          (* Validity established by the Value Storage scan below. *)
          ())
    bindings;
  (* 3. Rebuild per-chunk validity bitmaps from backward/forward pointer
     coupling. *)
  Array.iter
    (fun vs ->
      Value_storage.recover vs ~couple:(fun ~hsit_id loc ->
          Hashtbl.mem reachable hsit_id
          && Location.same_slot (Hsit.durable_primary t.hsit hsit_id) loc))
    t.vss;
  (* Chunk generations restarted at zero: canonicalize the generation bits
     of every recovered In_vs pointer so live lookups validate. *)
  List.iter
    (fun (_, id) ->
      match Hsit.durable_primary t.hsit id with
      | Location.In_vs { vs; gen = _; chunk; slot } ->
          Hsit.restore_primary t.hsit id
            (Location.In_vs { vs; gen = 0; chunk; slot })
      | Location.Nowhere | Location.In_pwb _ -> ())
    bindings;
  (* VS entries whose slot vanished (in-flight chunk write lost) are gone. *)
  List.iter
    (fun (key, id) ->
      match Hsit.durable_primary t.hsit id with
      | Location.In_vs { vs; gen = _; chunk; slot } ->
          if not (Value_storage.is_valid t.vss.(vs) ~gen:0 ~chunk ~slot) then
            lost := (key, id) :: !lost
      | Location.Nowhere | Location.In_pwb _ -> ())
    bindings;
  (* 4. Drop lost keys from the index so the store is consistent. *)
  List.iter
    (fun (key, id) ->
      ignore (t.index.ki_delete key);
      Hashtbl.remove reachable id)
    !lost;
  charge_index t;
  (* 5. Reset allocator state. *)
  Hsit.rebuild_free_list t.hsit ~reachable:(fun id ->
      Hashtbl.mem reachable id);
  Array.iteri
    (fun i pwb ->
      match pwb_ranges.(i) with
      | None -> Pwb.reset_range pwb ~head:(Pwb.tail pwb) ~tail:(Pwb.tail pwb)
      | Some (lo, hi) -> Pwb.reset_range pwb ~head:lo ~tail:hi)
    t.pwbs;
  (* Bulk charges: every reachable HSIT entry is read and rewritten (16 B
     each), and each PWB coupling check reads a record header. Recovery is
     parallelized over key ranges in the paper, so latency overlaps and
     bandwidth binds — a single large access models exactly that. *)
  let n = Hashtbl.length reachable in
  Model.access (Nvm.device t.nvm) Model.Read ~size:(16 * (n + 1));
  Model.access (Nvm.device t.nvm) Model.Write ~size:(16 * (n + 1));
  n

let quiesce t =
  let rec wait () =
    let busy = Array.exists Reclaimer.over_watermark t.reclaimers in
    if busy then begin
      Array.iter Reclaimer.maybe_trigger t.reclaimers;
      Engine.delay 100e-6;
      wait ()
    end
  in
  wait ()
