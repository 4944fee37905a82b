type t = {
  name : string;
  stat_prefix : string;
  put : tid:int -> string -> bytes -> unit;
  get : tid:int -> string -> bytes option;
  delete : tid:int -> string -> bool;
  scan : tid:int -> string -> int -> (string * bytes) list;
  quiesce : unit -> unit;
  recover : (unit -> unit) option;
}

let of_prism store =
  {
    name = "Prism";
    stat_prefix = Prism_sim.Stats.sanitize "Prism";
    put = (fun ~tid key value -> Prism_core.Store.put store ~tid key value);
    get = (fun ~tid key -> Prism_core.Store.get store ~tid key);
    delete = (fun ~tid key -> Prism_core.Store.delete store ~tid key);
    scan = (fun ~tid key count -> Prism_core.Store.scan store ~tid key count);
    quiesce = (fun () -> Prism_core.Store.quiesce store);
    recover = None;
  }

let of_lsm tree =
  let open Prism_baselines in
  let name = Lsm_tree.name tree in
  {
    name;
    stat_prefix = Prism_sim.Stats.sanitize name;
    put = (fun ~tid:_ key value -> Lsm_tree.put tree key value);
    get = (fun ~tid:_ key -> Lsm_tree.get tree key);
    delete = (fun ~tid:_ key -> Lsm_tree.remove_existed tree key);
    scan = (fun ~tid:_ key count -> Lsm_tree.scan tree ~from:key ~count);
    quiesce = (fun () -> Lsm_tree.quiesce tree);
    recover = None;
  }

let of_slmdb db =
  let open Prism_baselines in
  {
    name = "SLM-DB";
    stat_prefix = Prism_sim.Stats.sanitize "SLM-DB";
    put = (fun ~tid:_ key value -> Slmdb.put db key value);
    get = (fun ~tid:_ key -> Slmdb.get db key);
    delete = (fun ~tid:_ key -> Slmdb.remove_existed db key);
    scan = (fun ~tid:_ key count -> Slmdb.scan db ~from:key ~count);
    quiesce = (fun () -> Slmdb.quiesce db);
    recover = None;
  }

let of_kvell kv =
  let open Prism_baselines in
  (* Injector-style write pipelining: each client thread keeps up to a
     small window of writes in flight, like KVell's injector threads.
     The per-thread queue array grows on demand so distinct tids never
     alias onto one another's pipeline. *)
  let window = 8 in
  let pending : unit Prism_sim.Sync.Ivar.t Queue.t array ref = ref [||] in
  let queue_for tid =
    if tid < 0 then invalid_arg "Kv.of_kvell: negative tid";
    let n = Array.length !pending in
    if tid >= n then begin
      let n' = max (tid + 1) (max 8 (2 * n)) in
      pending :=
        Array.init n' (fun i ->
            if i < n then !pending.(i) else Queue.create ())
    end;
    !pending.(tid)
  in
  let drain_to q limit =
    while Queue.length q > limit do
      Prism_sim.Sync.Ivar.read (Queue.pop q)
    done
  in
  {
    name = "KVell";
    stat_prefix = Prism_sim.Stats.sanitize "KVell";
    put =
      (fun ~tid key value ->
        let q = queue_for tid in
        Queue.add (Kvell.put_async kv key value) q;
        drain_to q (window - 1));
    get = (fun ~tid:_ key -> Kvell.get kv key);
    delete = (fun ~tid:_ key -> Kvell.delete kv key);
    scan = (fun ~tid:_ key count -> Kvell.scan kv ~from:key ~count);
    quiesce =
      (fun () ->
        Kvell.quiesce kv;
        Array.iter (fun q -> drain_to q 0) !pending);
    recover = Some (fun () -> Kvell.recover kv);
  }

type op_kind = Put | Get | Delete | Scan

let op_kind_name = function
  | Put -> "put"
  | Get -> "get"
  | Delete -> "delete"
  | Scan -> "scan"

module T = Prism_workload.Trace

let kind_of_op : T.op -> op_kind = function
  | T.Read _ -> Get
  | T.Update _ | T.Insert _ -> Put
  | T.Scan _ -> Scan
  | T.Delete _ -> Delete

let apply kv ~tid = function
  | T.Read k -> ignore (kv.get ~tid k)
  | T.Update (k, size, version) | T.Insert (k, size, version) ->
      kv.put ~tid k (Prism_workload.Ycsb.value_for ~size ~key:k ~version)
  | T.Scan (k, n) -> ignore (kv.scan ~tid k n)
  | T.Delete k -> ignore (kv.delete ~tid k)

let wait_histogram engine kv kind =
  let open Prism_sim in
  Stats.histogram (Engine.stats engine)
    ("kv." ^ kv.stat_prefix ^ "." ^ op_kind_name kind ^ ".wait")

let instrument engine kv =
  let open Prism_sim in
  let reg = Engine.stats engine in
  let spans = Engine.spans engine in
  let p = "kv." ^ kv.stat_prefix in
  let h_put = Stats.histogram reg (p ^ ".put.latency") in
  let h_get = Stats.histogram reg (p ^ ".get.latency") in
  let h_delete = Stats.histogram reg (p ^ ".delete.latency") in
  let h_scan = Stats.histogram reg (p ^ ".scan.latency") in
  (* Register the wait side of the wait/service split up front, so every
     instrumented run exports the full histogram family even when nothing
     queues (closed loop => count 0). *)
  List.iter
    (fun kind -> ignore (wait_histogram engine kv kind))
    [ Put; Get; Delete; Scan ];
  let put_bytes = Stats.counter reg (p ^ ".put.bytes") in
  (* Observational only: reads the virtual clock around the wrapped call
     and never delays, spawns, or suspends — the event schedule is
     untouched, so results match the uninstrumented store exactly. *)
  let timed name hist ~tid f =
    let t0 = Engine.now engine in
    let h = Span.begin_ spans ~name ~tid ~now:t0 in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Engine.now engine in
        Hist.record_span hist (t1 -. t0);
        Span.end_ spans h ~now:t1)
      f
  in
  (* Latency recording on the spans-disabled path (the common case):
     integer-nanosecond timestamps ([Engine.now_ns]) feed [Hist.record]'s
     int argument directly, and exception propagation is an explicit
     handler — no [Fun.protect]/thunk closures and no float boxing, so
     the middleware adds zero allocation per op. The slow [timed] path
     (spans enabled) keeps the float clock for span bookkeeping. *)
  let record_since hist t0_ns =
    Hist.record hist (Engine.now_ns engine - t0_ns)
  in
  let reraise e t0_ns hist =
    let bt = Printexc.get_raw_backtrace () in
    record_since hist t0_ns;
    Printexc.raise_with_backtrace e bt
  in
  {
    kv with
    put =
      (fun ~tid key value ->
        if Span.enabled spans then
          timed (p ^ ".put") h_put ~tid (fun () ->
              kv.put ~tid key value;
              Metric.Counter.add put_bytes (Bytes.length value))
        else begin
          let t0 = Engine.now_ns engine in
          match kv.put ~tid key value with
          | () ->
              Metric.Counter.add put_bytes (Bytes.length value);
              record_since h_put t0
          | exception e -> reraise e t0 h_put
        end);
    get =
      (fun ~tid key ->
        if Span.enabled spans then
          timed (p ^ ".get") h_get ~tid (fun () -> kv.get ~tid key)
        else begin
          let t0 = Engine.now_ns engine in
          match kv.get ~tid key with
          | r ->
              record_since h_get t0;
              r
          | exception e -> reraise e t0 h_get
        end);
    delete =
      (fun ~tid key ->
        if Span.enabled spans then
          timed (p ^ ".delete") h_delete ~tid (fun () -> kv.delete ~tid key)
        else begin
          let t0 = Engine.now_ns engine in
          match kv.delete ~tid key with
          | r ->
              record_since h_delete t0;
              r
          | exception e -> reraise e t0 h_delete
        end);
    scan =
      (fun ~tid key count ->
        if Span.enabled spans then
          timed (p ^ ".scan") h_scan ~tid (fun () -> kv.scan ~tid key count)
        else begin
          let t0 = Engine.now_ns engine in
          match kv.scan ~tid key count with
          | r ->
              record_since h_scan t0;
              r
          | exception e -> reraise e t0 h_scan
        end);
  }
