open Prism_sim
open Prism_workload

type result = {
  store : string;
  workload : string;
  ops : int;
  elapsed : float;
  kops : float;
  latency : Hist.t;
}

let pp_result fmt r =
  Format.fprintf fmt
    "%-12s %-8s %8d ops in %8.4fs -> %9.1f kops/s (avg %6.1fus p50 %6.1fus p99 %7.1fus)"
    r.store r.workload r.ops r.elapsed r.kops
    (Hist.mean r.latency /. 1e3)
    (Hist.to_us (Hist.median r.latency))
    (Hist.to_us (Hist.percentile r.latency 99.0))

(* Run [body tid] on [threads] client processes and wait for all of them;
   returns the virtual makespan. *)
let parallel_phase engine ~threads body =
  let latch = Sync.Latch.create threads in
  let start = Engine.now engine in
  for tid = 0 to threads - 1 do
    Engine.spawn engine (fun () ->
        body tid;
        Sync.Latch.arrive latch)
  done;
  let finished = ref nan in
  Engine.spawn engine (fun () ->
      Sync.Latch.wait latch;
      finished := Engine.now engine;
      Engine.stop engine);
  ignore (Engine.run engine);
  if Float.is_nan !finished then
    failwith "Runner: phase did not complete (deadlock or missing stop)";
  !finished -. start

let result kv workload ops elapsed latency =
  let kops = float_of_int ops /. elapsed /. 1e3 in
  { store = kv.Kv.name; workload; ops; elapsed; kops; latency }

let load engine kv (s : Setup.scenario) =
  let { Setup.threads; records; value_size; seed; _ } = s in
  let rng = Rng.create seed in
  let order = Ycsb.load_order ~records rng in
  let latency = Hist.create () in
  let elapsed =
    parallel_phase engine ~threads (fun tid ->
        let i = ref tid in
        while !i < records do
          let ordinal = order.(!i) in
          let key = Ycsb.key_of ordinal in
          let value = Ycsb.value_for ~size:value_size ~key ~version:0 in
          let t0 = Engine.now engine in
          kv.Kv.put ~tid key value;
          Hist.record_span latency (Engine.now engine -. t0);
          i := !i + threads
        done;
        if tid = 0 then kv.Kv.quiesce ())
  in
  result kv "LOAD" records elapsed latency

let run ?timeline ?ops engine kv mix (s : Setup.scenario) =
  let { Setup.threads; records; theta; value_size; seed; _ } = s in
  let ops =
    match ops with
    | Some n -> n
    | None -> if mix.Ycsb.name = "E" then s.scan_ops else s.ops
  in
  (* Decorrelate phases: the same scenario seed must not make every
     workload draw the identical key sequence (a store would then serve
     workload C straight from the footprints workload B left behind). *)
  let rng =
    Rng.create
      (Int64.add seed (Prism_index.Strhash.fnv1a mix.Ycsb.name))
  in
  let gen = Ycsb.create mix ~records ~theta ~value_size rng in
  let latency = Hist.create () in
  let per_thread = ops / threads in
  let elapsed =
    parallel_phase engine ~threads (fun tid ->
        for _ = 1 to per_thread do
          let op = Ycsb.next gen in
          let t0 = Engine.now engine in
          (match op with
          | Ycsb.Read key -> ignore (kv.Kv.get ~tid key)
          | Ycsb.Update (key, value) | Ycsb.Insert (key, value) ->
              kv.Kv.put ~tid key value
          | Ycsb.Scan (key, len) -> ignore (kv.Kv.scan ~tid key len));
          Hist.record_span latency (Engine.now engine -. t0);
          match timeline with
          | Some tl -> Metric.Timeline.tick tl ~now:(Engine.now engine)
          | None -> ()
        done)
  in
  result kv mix.Ycsb.name (per_thread * threads) elapsed latency

type probe = {
  engine : Engine.t;
  kv : Kv.t;
  prism : Prism_core.Store.t option;
}

type 'a phase =
  | Run of Ycsb.mix
  | Run_timeline of string * Ycsb.mix
  | Quiesce
  | Read of (probe -> 'a)

type 'a cell = {
  label : string;
  scenario : Setup.scenario;
  make : Engine.t -> Setup.scenario -> Kv.t * Prism_core.Store.t option;
  phases : 'a phase list;
}

type 'a outcome = { load : result; results : result list; reads : 'a list }

let run_cell { label; scenario = s; make; phases } =
  let engine = Engine.create () in
  let kv, prism = make engine s in
  let kv = Kv.instrument engine kv in
  let probe = { engine; kv; prism } in
  let results = ref [] and reads = ref [] in
  let step = function
    | Run mix -> results := run engine kv mix s :: !results
    | Run_timeline (name, mix) ->
        let timeline = Stats.timeline (Engine.stats engine) name ~interval:1e-3 in
        results := run ~timeline engine kv mix s :: !results
    | Quiesce ->
        Engine.spawn engine (fun () -> kv.Kv.quiesce ());
        ignore (Engine.run engine)
    | Read f -> reads := f probe :: !reads
  in
  try
    let loaded = load engine kv s in
    List.iter step phases;
    { load = loaded; results = List.rev !results; reads = List.rev !reads }
  with Failure msg -> failwith (label ^ ": " ^ msg)

let calibrate ?ops make mix s =
  let scenario =
    match ops with None -> s | Some n -> { s with Setup.ops = n; scan_ops = n }
  in
  let make e _ = (make e, None) in
  List.hd (run_cell { label = mix.Ycsb.name; scenario; make; phases = [ Run mix ] }).results

let recovery_time engine kv =
  match kv.Kv.recover with
  | None -> None
  | Some recover ->
      let start = ref nan in
      let stop = ref nan in
      Engine.spawn engine (fun () ->
          start := Engine.now engine;
          recover ();
          stop := Engine.now engine;
          Engine.stop engine);
      ignore (Engine.run engine);
      if Float.is_nan !stop then None else Some (!stop -. !start)
