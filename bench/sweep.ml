(* bench/sweep: offered-load knee curves.

   For each store, calibrate its closed-loop capacity, then drive it
   open-loop (Prism_frontend) at multiples of that capacity under each
   admission policy and record goodput, shed rate and latency quantiles —
   the latency-vs-offered-load "knee curve" family no paper figure covers.

     dune exec bench/sweep.exe --                      default sweep
     dune exec bench/sweep.exe -- --quick              CI-sized (2 stores
                                                       x 2 policies)
     dune exec bench/sweep.exe -- --stores prism,kvell --policies \
         unbounded,codel --points 0.6,1.0,1.4 --json knee.json

   Everything is virtual time, so a given --seed reproduces the sweep —
   including the JSON — byte-identically. *)

open Prism_sim
open Prism_harness
open Prism_workload
open Prism_frontend
open Prism_cli

let pf fmt = Printf.printf fmt

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = {
  stores : string list;
  policies : string list;
  points : float list; (* offered load as multiples of calibrated capacity *)
  arrival : string; (* poisson | mmpp | diurnal *)
  mix : Ycsb.mix;
  s : Setup.scenario; (* threads = servers; ops = arrivals per point *)
  cal_ops : int; (* closed-loop calibration ops *)
}

let default_config =
  {
    stores = [ "prism"; "kvell"; "rocksdb-nvm" ];
    policies = [ "unbounded"; "bounded"; "token-bucket"; "codel" ];
    points = [ 0.5; 0.75; 0.9; 1.05; 1.2; 1.5 ];
    arrival = "poisson";
    mix = Ycsb.ycsb_b;
    s =
      { Setup.default_scenario with records = 10_000; threads = 16; ops = 8_000 };
    cal_ops = 6_000;
  }

let quick_config =
  {
    default_config with
    stores = [ "prism"; "kvell" ];
    policies = [ "unbounded"; "bounded" ];
    points = [ 0.6; 1.0; 1.8 ];
    s = { default_config.s with records = 4_000; threads = 8; ops = 6_000 };
  }

(* ---------------------------------------------------------------- *)
(* Per-store sweep                                                   *)
(* ---------------------------------------------------------------- *)

type point = {
  multiplier : float;
  result : Frontend.result;
}

type curve = { policy_arg : string; policy : Admission.spec; points : point list }

type store_sweep = {
  store_name : string;
  capacity : float; (* closed-loop ops per virtual second *)
  service_p50 : float; (* closed-loop median latency, virtual seconds *)
  curves : curve list;
}

let run_point cfg make ~policy ~policy_arg ~capacity ~multiplier =
  let s = cfg.s in
  let e = Engine.create () in
  let kv = Kv.instrument e (make e) in
  ignore (Runner.load e kv s);
  (* Decorrelate the arrival stream and key sequence across sweep points
     while keeping every point a pure function of the sweep seed. *)
  let point_seed =
    Int64.add s.seed
      (Prism_index.Strhash.fnv1a
         (Printf.sprintf "knee/%s/%s/%s/%.4f" kv.Kv.name policy_arg cfg.arrival
            multiplier))
  in
  let rng = Rng.create point_seed in
  let arrival =
    Arrival.of_name cfg.arrival ~rate:(multiplier *. capacity) ~ops:s.ops
      (Rng.split rng)
  in
  let gen =
    Ycsb.create cfg.mix ~records:s.records ~theta:s.theta
      ~value_size:s.value_size rng
  in
  let trace =
    Trace.record_timed gen ~gap:(fun () -> Arrival.next_gap arrival) ~ops:s.ops
  in
  let result =
    Frontend.run ~servers:s.threads e kv ~policy
      ~offered_rate:(Arrival.mean_rate arrival) ~trace
  in
  { multiplier; result }

(* Closed-loop calibration and every (policy, point) cell build their
   own engine and store from the sweep seed, so both stages are flat
   fleet farms; merging by cell index keeps the tables, progress lines
   and JSON byte-identical for any --jobs. *)
let sweep cfg ~jobs =
  let makers = Array.of_list (List.map (fun n -> Setup.of_name n cfg.s) cfg.stores) in
  let calibrations =
    Prism_fleet.Fleet.farm ~jobs (Array.length makers) (fun i ->
        let r = Runner.calibrate ~ops:cfg.cal_ops makers.(i) cfg.mix cfg.s in
        let capacity = r.Runner.kops *. 1e3 in
        let policies =
          List.map
            (fun arg ->
              match Admission.of_string ~capacity ~servers:cfg.s.threads arg with
              | Ok p -> (arg, p)
              | Error e -> failwith e)
            cfg.policies
        in
        (r, policies))
  in
  let cells =
    Array.of_list
      (List.concat
         (List.mapi
            (fun si (r, policies) ->
              List.concat_map
                (fun (policy_arg, policy) ->
                  List.map (fun m -> (si, r, policy_arg, policy, m)) cfg.points)
                policies)
            (Array.to_list calibrations)))
  in
  let results =
    Prism_fleet.Fleet.farm ~jobs (Array.length cells) (fun i ->
        let si, r, policy_arg, policy, multiplier = cells.(i) in
        run_point cfg makers.(si) ~policy ~policy_arg
          ~capacity:(r.Runner.kops *. 1e3) ~multiplier)
  in
  let npts = List.length cfg.points in
  let next = ref 0 in
  Array.to_list calibrations
  |> List.map (fun (r, policies) ->
         let store_name = r.Runner.store in
         let capacity = r.Runner.kops *. 1e3 in
         let service_p50 = Hist.quantile r.Runner.latency 50.0 *. 1e-9 in
         pf "%s: closed-loop capacity %.0f ops/s, service p50 %.1f us\n%!"
           store_name capacity (service_p50 *. 1e6);
         let curves =
           List.map
             (fun (policy_arg, policy) ->
               let points =
                 List.init npts (fun k ->
                     let p = results.(!next + k) in
                     pf "  %-22s x%.2f done\n%!" (Admission.describe policy)
                       p.multiplier;
                     p)
               in
               next := !next + npts;
               { policy_arg; policy; points })
             policies
         in
         { store_name; capacity; service_p50; curves })

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

let q hist p = Hist.us_of_ns (Hist.quantile hist p)

let print_tables sw =
  List.iter
    (fun c ->
      Report.table
        ~title:
          (Printf.sprintf "%s / %s — knee curve" sw.store_name
             (Admission.describe c.policy))
        ~columns:
          [
            "x cap"; "offered/s"; "goodput/s"; "shed %"; "depth";
            "p50 us"; "p99 us"; "p999 us"; "wait p99 us";
          ]
        (List.map
           (fun { multiplier; result = r } ->
             [
               Printf.sprintf "%.2f" multiplier;
               Printf.sprintf "%.0f" r.Frontend.offered_rate;
               Printf.sprintf "%.0f" r.Frontend.goodput;
               Printf.sprintf "%.1f" (100.0 *. Frontend.shed_rate r);
               string_of_int r.Frontend.max_depth;
               Printf.sprintf "%.1f" (q r.Frontend.sojourn 50.0);
               Printf.sprintf "%.1f" (q r.Frontend.sojourn 99.0);
               Printf.sprintf "%.1f" (q r.Frontend.sojourn 99.9);
               Printf.sprintf "%.1f" (q r.Frontend.wait 99.0);
             ])
           c.points))
    sw.curves

(* The claim knee curves exist to prove: past the saturation knee an
   admission policy keeps p99 bounded while the unbounded baseline's
   diverges. Checked at the highest overload multiplier. *)
let print_verdict sw =
  let last_p99 c =
    match List.rev c.points with
    | [] -> nan
    | { result; _ } :: _ -> q result.Frontend.sojourn 99.0
  in
  match
    List.find_opt (fun c -> c.policy = Admission.Unbounded) sw.curves
  with
  | None -> ()
  | Some baseline ->
      let base_p99 = last_p99 baseline in
      List.iter
        (fun c ->
          if c.policy <> Admission.Unbounded then begin
            let p99 = last_p99 c in
            if p99 > 0.0 && base_p99 >= 3.0 *. p99 then
              pf
                "  knee: %s bounds p99 at max overload (%.0f us vs unbounded \
                 %.0f us, %.0fx)\n"
                (Admission.describe c.policy)
                p99 base_p99 (base_p99 /. p99)
            else
              pf "  knee: %s p99 %.0f us vs unbounded %.0f us\n"
                (Admission.describe c.policy)
                p99 base_p99
          end)
        sw.curves

(* prism-knee-v1: fixed member order and float formats, so the same seed
   writes byte-identical output. *)
let json_of_sweeps cfg sweeps =
  let open Json in
  let point { multiplier; result = r } =
    Row
      [
        ("multiplier", fixed 4 multiplier);
        ("offered_per_sec", fixed 1 r.Frontend.offered_rate);
        ("goodput_per_sec", fixed 1 r.Frontend.goodput);
        ("shed_rate", fixed 6 (Frontend.shed_rate r));
        ("offered", Int r.Frontend.offered);
        ("completed", Int r.Frontend.completed);
        ("shed", Int (Frontend.shed r));
        ("max_depth", Int r.Frontend.max_depth);
        ("p50_us", fixed 3 (q r.Frontend.sojourn 50.0));
        ("p99_us", fixed 3 (q r.Frontend.sojourn 99.0));
        ("p999_us", fixed 3 (q r.Frontend.sojourn 99.9));
        ("wait_p99_us", fixed 3 (q r.Frontend.wait 99.0));
        ("service_p99_us", fixed 3 (q r.Frontend.service 99.0));
      ]
  in
  let curve c =
    Obj
      [
        ("policy", Str (Admission.name c.policy));
        ("policy_detail", Str (Admission.describe c.policy));
        ("points", Arr (List.map point c.points));
      ]
  in
  let store sw =
    Obj
      [
        ("store", Str sw.store_name);
        ("capacity_per_sec", fixed 1 sw.capacity);
        ("service_p50_us", fixed 3 (sw.service_p50 *. 1e6));
        ("curves", Arr (List.map curve sw.curves));
      ]
  in
  Obj
    [
      ("schema", Str "prism-knee-v1");
      ("seed", int64 cfg.s.seed);
      ("mix", Str cfg.mix.Ycsb.name);
      ("arrival", Str cfg.arrival);
      ("servers", Int cfg.s.threads);
      ("records", Int cfg.s.records);
      ("value_size", Int cfg.s.value_size);
      ("ops_per_point", Int cfg.s.ops);
      ("stores", Arr (List.map store sweeps));
    ]

(* ---------------------------------------------------------------- *)
(* CLI                                                               *)
(* ---------------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let main () quick stores policies points arrival mix scenario json jobs =
    let base = if quick then quick_config else default_config in
    let o = Option.value in
    let cfg =
      {
        base with
        stores = o stores ~default:base.stores;
        policies = o policies ~default:base.policies;
        points = o points ~default:base.points;
        arrival;
        mix;
        s = scenario base.s;
      }
    in
    let t0 = Unix.gettimeofday () in
    Report.section
      (Printf.sprintf
         "Offered-load knee curves: %s arrivals, mix %s, %d keys x %dB, %d \
          servers, %d arrivals/point"
         cfg.arrival cfg.mix.Ycsb.name cfg.s.records cfg.s.value_size
         cfg.s.threads cfg.s.ops);
    let sweeps = sweep cfg ~jobs in
    List.iter
      (fun sw ->
        print_tables sw;
        print_verdict sw)
      sweeps;
    (match json with
    | Some path ->
        Json.write path (json_of_sweeps cfg sweeps);
        pf "\nwrote knee curves to %s\n" path
    | None -> ());
    pf "\nSweep done in %.1fs wall.\n" (Unix.gettimeofday () -. t0)
  in
  Cli.exec ~name:"prism-sweep"
    ~doc:"Offered-load sweeps past saturation (knee curves)"
    Term.(
      const main $ Cli.gc_tune
      $ Cli.quick ~doc:"CI-sized sweep: 2 stores x 2 policies x 3 points"
      $ Cli.csv Arg.string "stores"
          ~doc:"Comma-separated: prism,kvell,matrixkv,rocksdb-nvm"
      $ Cli.csv Arg.string "policies"
          ~doc:
            "Comma-separated admission policies: unbounded, bounded[=N], \
             token-bucket[=RATE[,BURST]], codel[=TARGET_US,INTERVAL_US]"
      $ Cli.csv Arg.float "points"
          ~doc:"Comma-separated offered-load multipliers of calibrated capacity"
      $ Arg.(
          value & opt string "poisson"
          & info [ "arrival" ] ~doc:"Arrival process: poisson | mmpp | diurnal")
      $ Cli.mix "b"
      $ Cli.scenario
          ~threads:("servers", "Server processes draining the queue")
          ~ops:"Open-loop arrivals per sweep point"
      $ Cli.json ~doc:"Write the knee curves as JSON to $(docv)"
      $ Cli.jobs)
