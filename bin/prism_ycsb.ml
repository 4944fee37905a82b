(* prism-ycsb: a YCSB-style command line driver for every store in this
   repository.

     dune exec bin/prism_ycsb.exe -- --store prism --workload a
     dune exec bin/prism_ycsb.exe -- --store kvell --records 50000 \
         --threads 32 --theta 1.2 --workload load,a,c,e

   Throughput and latency are virtual time: the simulated Optane + NVMe
   machine's clock, not this process's wall clock. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_frontend
open Prism_cli

let replay_trace engine kv ~threads path =
  match Trace.load ~path with
  | Error e -> Printf.eprintf "cannot load trace %s: %s\n" path e
  | Ok trace ->
      let r, u, i, s, d = Trace.summary trace in
      Printf.printf "replaying %s: %d ops (%dR %dU %dI %dS %dD)\n" path
        (Array.length trace) r u i s d;
      let lat = Hist.create () in
      let elapsed =
        Runner.parallel_phase engine ~threads (fun tid ->
            Array.iteri
              (fun i op ->
                if i mod threads = tid then begin
                  let t0 = Engine.now engine in
                  Kv.apply kv ~tid op;
                  Hist.record_span lat (Engine.now engine -. t0)
                end)
              trace)
      in
      (* Unlike the workload phases, the replay lets the background work
         it started (flushes, compactions) drain before the next mode. *)
      ignore (Engine.run engine);
      Printf.printf
        "trace replay: %.1f kops/s virtual (avg %.1f us, p99 %.1f us)\n"
        (float_of_int (Array.length trace) /. elapsed /. 1e3)
        (Hist.mean lat /. 1e3)
        (Hist.to_us (Hist.percentile lat 99.0))

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Open-loop phase: requests arrive as a Poisson stream at a fixed
   offered rate regardless of completions, queue in front of the store,
   and an admission policy decides what to shed — the knee-curve setup of
   bench/sweep.exe, but for a single hand-picked operating point. *)
let run_open_loop engine kv mix (s : Setup.scenario) ~rate ~policy ~servers =
  let policy = Result.get_ok (Frontend.of_string ~servers policy) in
  let point_seed =
    Int64.add s.seed
      (Prism_index.Strhash.fnv1a
         (Printf.sprintf "open-loop/%s/poisson/%.3f" mix.Ycsb.name rate))
  in
  let rng = Rng.create point_seed in
  let arng = Rng.split rng in
  let gen =
    Ycsb.create mix ~records:s.records ~theta:s.theta ~value_size:s.value_size
      rng
  in
  let trace =
    Trace.record_timed gen
      ~gap:(fun () -> Rng.exponential arng ~mean:(1.0 /. rate))
      ~ops:s.ops
  in
  let r = Frontend.run ~servers engine kv ~policy ~offered_rate:rate ~trace in
  Format.printf "open-loop(poisson) %a@." Frontend.pp_result r

let run () store_name workloads records value_size threads
    num_ssds theta ops shards txn_every open_loop policy servers
    trace_out trace_in stats stats_json chrome_trace =
  let shards = Option.value shards ~default:1 in
  let txn_every = Option.value txn_every ~default:0 in
  let scenario =
    {
      Setup.default_scenario with
      records;
      value_size;
      threads;
      num_ssds;
      theta;
      ops;
      scan_ops = max 1 (ops / 10);
    }
  in
  let cluster_cfg =
    if shards > 1 || txn_every > 0 then begin
      if store_name <> "prism" then
        failwith "--shards/--txn-every need --store prism";
      Some
        {
          Prism_cluster.Cluster.default with
          Prism_cluster.Cluster.shards = max 1 shards;
          seed = scenario.Setup.seed;
        }
    end
    else None
  in
  let engine = Engine.create () in
  (match chrome_trace with
  | Some _ ->
      Span.set_enabled (Engine.spans engine) true;
      Span.set_keep_events (Engine.spans engine) true
  | None -> ());
  let cluster, base_kv =
    match cluster_cfg with
    | Some ccfg ->
        let c, ckv = Prism_cluster.Cluster.of_scenario engine ccfg scenario in
        (Some c, ckv)
    | None -> (None, Setup.of_name store_name scenario engine)
  in
  (* Every [txn_every]-th put becomes a multi-key 2PC write batch,
     exercising cross-shard commits under the measured workload. *)
  let base_kv =
    match cluster with
    | Some c ->
        Prism_cluster.Cluster.with_batches c base_kv ~every:txn_every ~records
          ~seed:scenario.Setup.seed
    | None -> base_kv
  in
  let kv = Kv.instrument engine base_kv in
  let phases = String.split_on_char ',' (String.lowercase_ascii workloads) in
  (* The single-mix modes drive the first mix --workload names. *)
  let first_mix ~default =
    match List.filter_map Ycsb.mix_of_name phases with
    | m :: _ -> m
    | [] -> default
  in
  Printf.printf "store=%s records=%d value=%dB threads=%d ssds=%d zipf=%.2f\n\n"
    kv.Kv.name records value_size threads num_ssds theta;
  (match trace_out with
  | Some path ->
      (* Record the first named mix into a replayable trace file. *)
      let mix = first_mix ~default:Ycsb.ycsb_a in
      let gen =
        Ycsb.create mix ~records ~theta ~value_size
          (Rng.create scenario.Setup.seed)
      in
      let trace = Trace.record gen ~ops in
      Trace.save trace ~path;
      Printf.printf "recorded %d %s-ops to %s\n" ops mix.Ycsb.name path
  | None -> ());
  List.iter
    (fun phase ->
      match phase with
      | "load" ->
          Format.printf "%a@." Runner.pp_result (Runner.load engine kv scenario)
      | name -> (
          match Ycsb.mix_of_name name with
          | Some mix ->
              Format.printf "%a@." Runner.pp_result
                (Runner.run engine kv mix scenario)
          | None -> Printf.eprintf "skipping unknown workload %S\n" name))
    phases;
  (match trace_in with
  | Some path -> replay_trace engine kv ~threads path
  | None -> ());
  (match open_loop with
  | Some rate ->
      run_open_loop engine kv (first_mix ~default:Ycsb.ycsb_b) scenario ~rate
        ~policy ~servers:(Option.value servers ~default:threads)
  | None -> ());
  let reg = Engine.stats engine in
  Stats.register_gc reg;
  let dev medium =
    Stats.get_int reg (kv.Kv.stat_prefix ^ ".device." ^ medium ^ ".bytes_written")
  in
  Printf.printf "\nSSD bytes written: %.1f MB; NVM bytes written: %.1f MB\n"
    (float_of_int (dev "ssd") /. 1048576.0)
    (float_of_int (dev "nvm") /. 1048576.0);
  (match cluster with
  | Some c ->
      let commits, aborts, prepares = Prism_cluster.Cluster.txn_stats c in
      Printf.printf
        "cluster: %d shards, %d txns committed, %d aborted, %d prepares, %d \
         ops routed\n"
        (Prism_cluster.Cluster.shards c)
        commits aborts prepares
        (Stats.get_int reg "prism.cluster.ops.routed")
  | None -> ());
  if stats then Format.printf "@.%a@." Stats.pp reg;
  (match stats_json with
  | Some path ->
      write_file path (Stats.to_json reg);
      Printf.printf "wrote metric registry to %s\n" path
  | None -> ());
  match chrome_trace with
  | Some path ->
      write_file path (Span.to_chrome_json (Engine.spans engine));
      Printf.printf "wrote Chrome trace to %s\n" path
  | None -> ()

let () =
  let open Cmdliner in
  let store =
    Arg.(
      value
      & opt Cli.store_name "prism"
      & info [ "store" ] ~docv:"STORE"
          ~doc:("Store to drive: " ^ String.concat " | " Setup.store_names))
  in
  let workload =
    Arg.(
      value & opt string "load,a,b,c,d,e"
      & info [ "workload" ] ~doc:"Comma-separated: load,a,b,c,d,e,nutanix")
  in
  let records =
    Arg.(
      value & opt Cli.pos_int 20_000
      & info [ "records" ] ~doc:"Dataset size in keys")
  in
  let value_size =
    Arg.(
      value & opt Cli.pos_int 256 & info [ "value-size" ] ~doc:"Value bytes")
  in
  let threads =
    Arg.(value & opt Cli.pos_int 16 & info [ "threads" ] ~doc:"Client threads")
  in
  let ssds =
    Arg.(value & opt Cli.pos_int 4 & info [ "ssds" ] ~doc:"Simulated SSDs")
  in
  let theta =
    Arg.(value & opt float 0.99 & info [ "theta" ] ~doc:"Zipfian coefficient")
  in
  let ops =
    Arg.(
      value & opt Cli.pos_int 20_000
      & info [ "ops" ] ~doc:"Operations per workload")
  in
  let open_loop =
    Arg.(
      value
      & opt (some Cli.pos_float) None
      & info [ "open-loop" ]
          ~doc:
            "After the workload phases, drive the first named mix open-loop \
             at $(docv) offered ops per virtual second (Poisson arrivals) \
             through a bounded queue and admission policy"
          ~docv:"RATE")
  in
  let policy =
    Arg.(
      value & opt Cli.policy_name "unbounded"
      & info [ "policy" ]
          ~doc:
            "Open-loop admission policy: unbounded | bounded[=N]; the \
             default bound scales with --servers")
  in
  let servers =
    Arg.(
      value
      & opt (some Cli.pos_int) None
      & info [ "servers" ]
          ~doc:"Server processes draining the open-loop queue (default: \
                --threads)")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~doc:"Record the first workload to a trace file")
  in
  let trace_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-in" ] ~doc:"Replay a recorded trace after the workloads")
  in
  let chrome_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ]
          ~doc:
            "Collect virtual-time spans and write a Chrome trace_event file \
             to $(docv)"
          ~docv:"FILE")
  in
  Cli.exec ~name:"prism-ycsb" ~doc:"Run YCSB workloads on simulated KV stores"
    Term.(
      const run $ Cli.gc_tune $ store $ workload $ records
      $ value_size $ threads $ ssds $ theta $ ops $ Cli.shards $ Cli.txn_every
      $ open_loop $ policy $ servers $ trace_out $ trace_in
      $ Cli.stats
      $ Cli.stats_json ~doc:"Write the metric registry as JSON to $(docv)"
      $ chrome_trace)
