(* prism-check: schedule exploration, linearizability checking, and
   crash-point sweeps for the simulated stores.

     dune exec bin/prism_check.exe -- --seed 42 --schedules 50
     dune exec bin/prism_check.exe -- --seed 42 --dpor 50
     dune exec bin/prism_check.exe -- --seed 42 --crash-every 5
     dune exec bin/prism_check.exe -- --store lsm --crash-every 3
     dune exec bin/prism_check.exe -- --schedules 10 --fault svc
     dune exec bin/prism_check.exe -- --replay 0x1234abcd
     dune exec bin/prism_check.exe -- --replay 0x1234abcd --fault svc --shrink
     dune exec bin/prism_check.exe -- --replay-choices 0,2,1 --fault svc

   --schedules samples random interleavings (one per derived tie seed);
   --dpor walks the tie-break decision tree with partial-order reduction
   instead, so every explored schedule is a distinct Mazurkiewicz class.
   --shrink minimizes a failing seeded schedule to the fewest non-FIFO
   tie decisions and prints a list --replay-choices accepts.

   Exit status is non-zero when any schedule or any crash recovery fails
   its linearizability check; schedule failures print a replayable tie
   seed (or tie-choice list). *)

open Prism_check
open Prism_cli

(* --fault's names: parsed and printed from this one table. *)
let faults =
  [
    ("none", Explore.No_fault);
    ("svc", Explore.Skip_svc_invalidate);
    ("hsit", Explore.Skip_hsit_flush);
    ("scan-stale", Explore.Scan_stale_snapshot);
    ("scan-skip-pwb", Explore.Scan_skip_pwb);
    ("scan-drop", Explore.Scan_drop_key);
    ("2pc-ack", Explore.Skip_2pc_log_flush);
    ("no-lsm-wal", Explore.No_lsm_wal);
  ]

let fault_name f = fst (List.find (fun (_, g) -> g = f) faults)

(* --store's names, likewise. *)
let stores =
  [ ("prism", `Prism); ("kvell", `Kvell); ("lsm", `Lsm); ("cluster", `Cluster) ]

let store_name s = fst (List.find (fun (_, t) -> t = s) stores)

(* The checked store, as the run headers print it. *)
let store_label cfg =
  match cfg.Explore.store with
  | `Prism -> "prism"
  | `Kvell -> "kvell"
  | `Cluster ->
      Printf.sprintf "prism cluster (%d shards, txn every %d)"
        cfg.Explore.shards cfg.Explore.txn_every
  | `Lsm ->
      if cfg.Explore.fault = Explore.No_lsm_wal then "lsm (WAL disabled!)"
      else "lsm"

(* The explored setup, as the exploration headers print it. *)
let describe cfg =
  Printf.sprintf
    "%s, %d threads x %d ops over %d keys, seed 0x%Lx, fault %s, strict scans"
    (store_label cfg) cfg.Explore.threads cfg.Explore.ops_per_thread
    cfg.Explore.records cfg.Explore.seed
    (fault_name cfg.Explore.fault)

(* Replay hints must reproduce the checking setup, not just the
   schedule: the fault, and every workload flag that differs from its
   default (the flags' defaults are {!Explore.default}'s). A cluster
   always names its topology, which [Explore.topology] then settles to
   the same store. *)
let replay_flags cfg =
  let d = Explore.default in
  let int name v default =
    if v <> default then Printf.sprintf " --%s %d" name v else ""
  in
  String.concat ""
    [
      (match cfg.Explore.fault with
      | Explore.No_fault -> ""
      | f -> " --fault " ^ fault_name f);
      (if cfg.Explore.store <> d.Explore.store then
         " --store " ^ store_name cfg.Explore.store
       else "");
      (if cfg.Explore.store = `Cluster then
         Printf.sprintf " --shards %d --txn-every %d" cfg.Explore.shards
           cfg.Explore.txn_every
       else "");
      (if cfg.Explore.seed <> d.Explore.seed then
         Printf.sprintf " --seed 0x%Lx" cfg.Explore.seed
       else "");
      int "threads" cfg.Explore.threads d.Explore.threads;
      int "ops" cfg.Explore.ops_per_thread d.Explore.ops_per_thread;
      int "records" cfg.Explore.records d.Explore.records;
      int "keys-per-thread" cfg.Explore.keys_per_thread
        d.Explore.keys_per_thread;
      int "scan-every" cfg.Explore.scan_every d.Explore.scan_every;
      int "delete-every" cfg.Explore.delete_every d.Explore.delete_every;
    ]

let run_explore ~schedules ~cfg ~verbose ~jobs =
  Printf.printf "exploring %d schedules: %s\n%!" schedules (describe cfg);
  let progress s =
    if verbose then
      Printf.printf
        "  schedule %3d  tie-seed 0x%016Lx  %4d events  %4d tie choices  \
         clock %.6fs\n\
         %!"
        s.Explore.index s.Explore.tie_seed s.Explore.events s.Explore.choices
        s.Explore.clock
  in
  let report = Explore.run ~progress ~jobs ~schedules cfg in
  Printf.printf "explored %d schedules (%d distinct interleavings)\n"
    (List.length report.Explore.schedules)
    report.Explore.distinct;
  (match report.Explore.failures with
  | [] -> Printf.printf "all schedules linearizable\n"
  | failures ->
      List.iter
        (fun f ->
          Printf.printf
            "FAILURE: schedule %d is not linearizable\n\
            \  replay with: --replay 0x%Lx%s\n\
             %s\n"
            f.Explore.stats.Explore.index f.Explore.stats.Explore.tie_seed
            (replay_flags cfg) f.Explore.violation)
        failures);
  report.Explore.failures = []

(* A single replayed schedule's verdict; [true] when linearizable. *)
let print_replay = function
  | None ->
      Printf.printf "schedule is linearizable\n";
      true
  | Some violation ->
      Printf.printf "FAILURE:\n%s\n" violation;
      false

let run_replay ~cfg ~tie_seed =
  Printf.printf "replaying schedule with tie-seed 0x%Lx\n%!" tie_seed;
  print_replay (Explore.replay cfg ~tie_seed)

let choices_to_string choices =
  String.concat "," (List.map string_of_int (Array.to_list choices))

(* A [--replay-choices] argument for [choices]: the trailing FIFO picks
   are dropped (a replay reads past the list's end as 0), and a list
   with none left is spelled [0]. *)
let replay_hint choices =
  match Explore.strip_fifo_tail choices with
  | [||] -> "0"
  | c -> choices_to_string c

let run_dpor ~max_classes ~cfg ~verbose ~jobs =
  Printf.printf "DPOR: up to %d interleaving classes: %s\n%!" max_classes
    (describe cfg);
  let progress s =
    if verbose then
      Printf.printf
        "  run %3d  %4d events  %4d tie choices  clock %.6fs\n%!"
        s.Explore.index s.Explore.events s.Explore.choices s.Explore.clock
  in
  let report = Explore.run_dpor ~progress ~jobs ~max_classes cfg in
  Printf.printf
    "explored %d interleaving classes in %d runs (%d pruned as redundant)%s\n"
    report.Explore.classes report.Explore.runs report.Explore.pruned
    (if report.Explore.complete then "; class tree exhausted" else "");
  (match report.Explore.dpor_failures with
  | [] -> Printf.printf "all explored classes linearizable\n"
  | failures ->
      List.iter
        (fun f ->
          Printf.printf
            "FAILURE: class %d (run %d) is not linearizable\n\
            \  replay with: --replay-choices %s%s\n\
             %s\n"
            f.Explore.class_index f.Explore.found_at_run
            (replay_hint f.Explore.choices)
            (replay_flags cfg) f.Explore.violation)
        failures);
  report.Explore.dpor_failures = []

let run_replay_choices ~cfg ~choices =
  Printf.printf "replaying schedule with tie choices [%s]\n%!"
    (choices_to_string choices);
  print_replay (Explore.replay_choices cfg ~choices)

let run_shrink ~cfg ~tie_seed =
  Printf.printf "recording schedule with tie-seed 0x%Lx for shrinking\n%!"
    tie_seed;
  let choices, violation =
    Explore.run_tie cfg ~tie:(Prism_sim.Engine.Seeded tie_seed)
  in
  match violation with
  | None ->
      Printf.printf
        "schedule is linearizable; nothing to shrink (run with a failing \
         seed/fault)\n";
      true
  | Some _ -> (
      Printf.printf "schedule fails with %d tie decisions; shrinking...\n%!"
        (Array.length choices);
      match Explore.shrink cfg ~choices with
      | None ->
          Printf.printf "shrink could not reproduce the violation\n";
          false
      | Some s ->
          Printf.printf
            "shrunk to %d non-FIFO tie decisions (%d decision list entries) \
             in %d replays\n\
            \  replay with: --replay-choices %s%s\n\
             FAILURE (still reproduces):\n\
             %s\n"
            s.Explore.non_fifo
            (Array.length s.Explore.minimal)
            s.Explore.replays
            (replay_hint s.Explore.minimal)
            (replay_flags cfg) s.Explore.shrunk_violation;
          false)

(* 1st, 2nd, 3rd, 4th, ..., 11th, 12th, 13th, ..., 21st, ... *)
let ordinal n =
  let suffix =
    match (n mod 100, n mod 10) with
    | (11 | 12 | 13), _ -> "th"
    | _, 1 -> "st"
    | _, 2 -> "nd"
    | _, 3 -> "rd"
    | _ -> "th"
  in
  string_of_int n ^ suffix

let run_sweep ~cfg ~verbose ~jobs =
  Printf.printf
    "crash sweep: %s, every %s%s boundary, %d threads x %d ops, seed 0x%Lx%s\n\
     %!"
    (store_label cfg)
    (ordinal cfg.Explore.crash_every)
    (match cfg.Explore.store with
    | `Prism | `Lsm -> " durability"
    | `Cluster -> " 2PC log-persist"
    | `Kvell -> "-event time-grid")
    cfg.Explore.threads cfg.Explore.ops_per_thread cfg.Explore.seed
    (match cfg.Explore.fault with
    | Explore.Skip_hsit_flush -> " (HSIT flush disabled!)"
    | Explore.Skip_2pc_log_flush -> " (commit-record flush disabled!)"
    | _ -> "");
  let progress ~boundary ~crash_point =
    if verbose then
      Printf.printf "  crashed at %s boundary %d, recovered\n%!" boundary
        crash_point
  in
  let report = Crash_sweep.run ~progress ~jobs cfg in
  List.iter
    (fun (name, total) ->
      Printf.printf "%s boundaries in clean run: %d\n" name total)
    report.Crash_sweep.boundaries;
  Printf.printf "injected %d crash points\n" report.Crash_sweep.crash_points;
  (match report.Crash_sweep.violations with
  | [] ->
      Printf.printf
        "all recoveries consistent: no lost acknowledged writes, no \
         resurrected deletes\n"
  | vs ->
      List.iter
        (fun v ->
          Printf.printf "VIOLATION at %s boundary %d, key %s: %s\n"
            v.Crash_sweep.boundary v.Crash_sweep.crash_point
            v.Crash_sweep.key v.Crash_sweep.detail)
        vs);
  report.Crash_sweep.violations = []

let parse_choices s =
  try
    String.split_on_char ',' s
    |> List.filter (fun part -> String.trim part <> "")
    |> List.map (fun part -> int_of_string (String.trim part))
    |> Array.of_list
  with Failure _ ->
    Printf.eprintf "bad --replay-choices %S (use e.g. 0,2,1)\n" s;
    exit 2

let main store seed schedules dpor crash_every replay
    replay_choices shrink fault scan_every delete_every
    threads ops records keys_per_thread shards txn_every jobs verbose =
  let usage msg =
    prerr_endline msg;
    exit 2
  in
  let replaying = replay <> None || replay_choices <> None in
  (* A replay names one explored schedule; a sweep beside it would be
     dropped, so the pair is refused rather than half-run. *)
  if replaying && crash_every > 0 then
    usage
      "--crash-every cannot be combined with --replay or --replay-choices: \
       a replay re-runs one explored schedule, not a crash sweep";
  let cfg =
    Explore.topology ?shards ?txn_every
      {
        Explore.default with
        Explore.store;
        threads;
        records;
        keys_per_thread;
        ops_per_thread = ops;
        delete_every;
        scan_every;
        fault;
        crash_every;
        seed;
      }
  in
  if
    cfg.Explore.store = `Kvell
    && (cfg.Explore.shards > 1 || cfg.Explore.txn_every > 0)
  then usage "--shards/--txn-every need the prism-backed cluster";
  (* No exploration builds the LSM store: it is checked by the crash
     sweep only. *)
  if store = `Lsm && (schedules > 0 || dpor > 0 || replaying) then
    usage "--store lsm supports only the crash sweep (--crash-every)";
  if shrink && replay = None then
    usage "--shrink needs --replay SEED to name the schedule";
  (* A fault the store cannot inject would run as a clean check, so every
     mode refuses it before anything runs. *)
  let refuse check ~what =
    try check cfg
    with Invalid_argument _ ->
      usage
        (Printf.sprintf "--fault %s: the %s %s cannot inject it"
           (fault_name cfg.Explore.fault)
           (store_name cfg.Explore.store)
           what)
  in
  if schedules > 0 || dpor > 0 || replaying then
    refuse Explore.check_fault ~what:"store";
  if crash_every > 0 then refuse Crash_sweep.check_fault ~what:"crash sweep";
  let ok = ref true in
  let did = ref false in
  let step run =
    did := true;
    if not (run ()) then ok := false
  in
  Option.iter
    (fun tie_seed ->
      step (fun () ->
          if shrink then run_shrink ~cfg ~tie_seed
          else run_replay ~cfg ~tie_seed))
    replay;
  Option.iter
    (fun s ->
      step (fun () -> run_replay_choices ~cfg ~choices:(parse_choices s)))
    replay_choices;
  if schedules > 0 then
    step (fun () -> run_explore ~schedules ~cfg ~verbose ~jobs);
  if dpor > 0 then
    step (fun () -> run_dpor ~max_classes:dpor ~cfg ~verbose ~jobs);
  (* The sweep runs its own preset's value size. *)
  if crash_every > 0 then
    step (fun () ->
        run_sweep
          ~cfg:
            {
              cfg with
              Explore.value_size = Crash_sweep.default.Explore.value_size;
            }
          ~verbose ~jobs);
  if not !did then
    usage
      "nothing to do: pass --schedules N, --dpor N, --crash-every K, \
       --replay SEED, or --replay-choices LIST";
  exit (if !ok then 0 else 1)

open Cmdliner

let store =
  Arg.(value
       & opt (enum stores) `Prism
       & info [ "store" ] ~docv:"STORE"
         ~doc:"Store to check: $(b,prism), $(b,kvell), $(b,lsm) (crash \
               sweep only), or $(b,cluster) (hash-partitioned Prism shards \
               behind the 2PC coordinator; defaults to 2 shards).")

let schedules =
  Arg.(value & opt int 0 & info [ "schedules" ] ~docv:"N"
         ~doc:"Explore $(docv) seeded interleavings and check each history \
               for linearizability.")

let crash_every =
  Arg.(value & opt int 0 & info [ "crash-every" ] ~docv:"K"
         ~doc:"Sweep crash points at every $(docv)-th durability boundary \
               and audit recovery.")

let dpor =
  Arg.(value & opt int 0 & info [ "dpor" ] ~docv:"N"
         ~doc:"Explore up to $(docv) distinct interleaving classes with \
               dynamic partial-order reduction (sleep sets + persistent \
               sets) instead of blind seed sampling.")

let replay =
  Arg.(value & opt (some int64) None & info [ "replay" ] ~docv:"TIESEED"
         ~doc:"Replay the single schedule named by a tie seed from a \
               failure report.")

let replay_choices =
  Arg.(value & opt (some string) None
       & info [ "replay-choices" ] ~docv:"LIST"
           ~doc:"Replay the schedule named by a comma-separated tie-choice \
                 list from a $(b,--dpor) or $(b,--shrink) report.")

let shrink =
  Arg.(value & flag
       & info [ "shrink" ]
           ~doc:"With $(b,--replay SEED): greedily revert the failing \
                 schedule's tie decisions to FIFO while the violation \
                 persists, and print the minimal tie-choice list.")

let fault =
  Arg.(value & opt (enum faults) Explore.No_fault
       & info [ "fault" ] ~docv:"FAULT"
         ~doc:"Deliberate bug to inject: $(b,none), $(b,svc) (skip cache \
               invalidation; breaks linearizability), $(b,hsit) (skip \
               pointer persists; loses acknowledged writes across crashes), \
               $(b,scan-stale) (serve repeat scans from a stale snapshot), \
               $(b,scan-skip-pwb) (scans miss write-buffered values), \
               $(b,scan-drop) (scans drop an in-range key), \
               $(b,2pc-ack) (cluster commit records skip their persist, so \
               acks race durability; only the crash sweep can see it), or \
               $(b,no-lsm-wal) (with $(b,--store lsm): no write-ahead log, \
               so the sweep must report lost acknowledged writes). A fault \
               the store or mode cannot inject exits with status 2.")

let scan_every =
  Arg.(value & opt Cli.pos_int Explore.default.Explore.scan_every
       & info [ "scan-every" ] ~docv:"N"
         ~doc:"One in $(docv) reads of the explored workload becomes a \
               short scan (lower = more scan/write races).")

let delete_every =
  Arg.(value & opt Cli.pos_int Explore.default.Explore.delete_every
       & info [ "delete-every" ] ~docv:"N"
         ~doc:"One in $(docv) updates of the explored workload becomes a \
               delete.")

let threads =
  Arg.(value & opt Cli.pos_int Explore.default.Explore.threads
       & info [ "threads" ] ~docv:"T"
         ~doc:"Concurrent client threads.")

let ops =
  Arg.(value & opt Cli.pos_int Explore.default.Explore.ops_per_thread
       & info [ "ops" ] ~docv:"OPS"
         ~doc:"Operations per thread.")

let records =
  Arg.(value & opt Cli.pos_int Explore.default.Explore.records
       & info [ "records" ] ~docv:"R"
         ~doc:"Preloaded keys for schedule exploration (kept small to force \
               contention).")

let keys_per_thread =
  Arg.(value & opt Cli.pos_int Explore.default.Explore.keys_per_thread
       & info [ "keys-per-thread" ] ~docv:"KEYS"
         ~doc:"Keys owned by each thread in the crash sweep.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-schedule and \
                                                    per-crash-point progress.")

let () =
  let doc =
    "schedule exploration, linearizability checking, and crash-point \
     sweeps for the Prism simulation"
  in
  Cli.exec ~name:"prism-check" ~doc
    Term.(
      const main $ store
      $ Cli.seed Explore.default.Explore.seed
      $ schedules $ dpor $ crash_every $ replay $ replay_choices $ shrink
      $ fault $ scan_every $ delete_every $ threads $ ops $ records
      $ keys_per_thread $ Cli.shards $ Cli.txn_every $ Cli.jobs $ verbose)
