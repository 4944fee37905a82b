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

   Exit status is non-zero when any schedule fails its linearizability
   check or any crash point loses an acknowledged write; failures print a
   replayable tie seed (or tie-choice list). *)

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
  ]

let fault_name f = fst (List.find (fun (_, g) -> g = f) faults)

(* The explored setup, as the run headers print it. *)
let describe cfg =
  Printf.sprintf
    "%s, %d threads x %d ops over %d keys, seed 0x%Lx, fault %s, %s scans"
    (match cfg.Explore.store with
    | `Kvell -> "kvell"
    | `Prism ->
        if cfg.Explore.shards > 1 || cfg.Explore.txn_every > 0 then
          Printf.sprintf "prism cluster (%d shards, txn every %d)"
            cfg.Explore.shards cfg.Explore.txn_every
        else "prism")
    cfg.Explore.threads cfg.Explore.ops_per_thread cfg.Explore.records
    cfg.Explore.seed
    (fault_name cfg.Explore.fault)
    (match cfg.Explore.scan_check with `Strict -> "strict" | `Weak -> "weak")

(* Replay hints must reproduce the checking setup, not just the schedule. *)
let fault_suffix cfg =
  (match cfg.Explore.fault with
  | Explore.No_fault -> ""
  | f -> " --fault " ^ fault_name f)
  ^ (if cfg.Explore.shards > 1 then
       Printf.sprintf " --shards %d" cfg.Explore.shards
     else "")
  ^ (if cfg.Explore.txn_every > 0 then
       Printf.sprintf " --txn-every %d" cfg.Explore.txn_every
     else "")

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
            (fault_suffix cfg) f.Explore.violation)
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
            (choices_to_string f.Explore.choices)
            (fault_suffix cfg) f.Explore.violation)
        failures);
  report.Explore.dpor_failures = []

let run_replay_choices ~cfg ~choices =
  Printf.printf "replaying schedule with tie choices [%s]\n%!"
    (choices_to_string choices);
  print_replay (Explore.replay_choices cfg ~choices)

let run_shrink ~cfg ~tie_seed =
  Printf.printf "recording schedule with tie-seed 0x%Lx for shrinking\n%!"
    tie_seed;
  let choices, violation = Explore.record cfg ~tie_seed in
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
            (if Array.length s.Explore.minimal = 0 then "0"
             else choices_to_string s.Explore.minimal)
            (fault_suffix cfg) s.Explore.shrunk_violation;
          false)

let run_sweep ~cfg ~verbose ~jobs =
  Printf.printf
    "crash sweep: %s, every %d%s boundary, %d threads x %d ops, seed 0x%Lx%s\n\
     %!"
    (match cfg.Crash_sweep.store with
    | `Prism -> "prism"
    | `Kvell -> "kvell"
    | `Cluster ->
        Printf.sprintf "prism cluster (%d shards, txn every %d)"
          cfg.Crash_sweep.shards cfg.Crash_sweep.txn_every
    | `Lsm -> if cfg.Crash_sweep.lsm_wal then "lsm" else "lsm (WAL disabled!)")
    cfg.Crash_sweep.crash_every
    (match cfg.Crash_sweep.store with
    | `Prism | `Lsm -> "th durability"
    | `Cluster -> "th 2PC log-persist"
    | `Kvell -> "th-event time-grid")
    cfg.Crash_sweep.threads cfg.Crash_sweep.ops_per_thread
    cfg.Crash_sweep.seed
    ((if cfg.Crash_sweep.fault_skip_hsit_flush then
        " (HSIT flush disabled!)"
      else "")
    ^
    if cfg.Crash_sweep.fault_skip_log_flush then
      " (commit-record flush disabled!)"
    else "")
  ;
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

let main store placement seed schedules dpor crash_every replay
    replay_choices shrink no_lsm_wal fault scan_every delete_every
    threads ops records keys_per_thread shards txn_every jobs verbose =
  (* --store cluster defaults to 2 shards; --shards > 1 on prism implies
     the cluster. Either way every sub-command sees the same topology. *)
  let shards =
    match shards with
    | Some n when n > 0 -> n
    | _ -> if store = `Cluster then 2 else 1
  in
  let store = if store = `Prism && shards > 1 then `Cluster else store in
  let txn_every =
    match txn_every with
    | Some k when k >= 0 -> k
    | _ ->
        if store = `Cluster then Crash_sweep.default.Crash_sweep.txn_every
        else 0
  in
  if store = `Kvell && (shards > 1 || txn_every > 0) then begin
    Printf.eprintf "--shards/--txn-every need the prism-backed cluster\n";
    exit 2
  end;
  let explore_store =
    match store with
    | `Prism | `Cluster -> `Prism
    | `Kvell -> `Kvell
    | `Lsm ->
        (* The LSM adapter acknowledges deletes unconditionally, which
           would read as linearizability violations that aren't — so the
           LSM store is checked by the crash sweep only. *)
        if
          schedules > 0 || dpor > 0 || replay <> None
          || replay_choices <> None
        then begin
          Printf.eprintf
            "--store lsm supports only the crash sweep (--crash-every)\n";
          exit 2
        end;
        `Prism
  in
  let explore_cfg =
    {
      Explore.default with
      Explore.store = explore_store;
      placement;
      threads;
      ops_per_thread = ops;
      records;
      scan_every = max 1 scan_every;
      delete_every = max 1 delete_every;
      fault;
      shards;
      txn_every;
      seed;
    }
  in
  let sweep_cfg =
    {
      Crash_sweep.default with
      Crash_sweep.store;
      placement;
      threads;
      ops_per_thread = ops;
      keys_per_thread;
      crash_every = max 1 crash_every;
      fault_skip_hsit_flush = fault = Explore.Skip_hsit_flush;
      lsm_wal = not no_lsm_wal;
      shards;
      txn_every;
      fault_skip_log_flush = fault = Explore.Skip_2pc_log_flush;
      seed;
    }
  in
  if shrink && replay = None then begin
    Printf.eprintf "--shrink needs --replay SEED to name the schedule\n";
    exit 2
  end;
  let ok = ref true in
  let did = ref false in
  (match replay with
  | Some tie_seed ->
      did := true;
      let r =
        if shrink then run_shrink ~cfg:explore_cfg ~tie_seed
        else run_replay ~cfg:explore_cfg ~tie_seed
      in
      if not r then ok := false
  | None -> ());
  (match replay_choices with
  | Some s ->
      did := true;
      if not (run_replay_choices ~cfg:explore_cfg ~choices:(parse_choices s))
      then ok := false
  | None -> ());
  if schedules > 0 then begin
    did := true;
    if not (run_explore ~schedules ~cfg:explore_cfg ~verbose ~jobs) then
      ok := false
  end;
  if dpor > 0 then begin
    did := true;
    if not (run_dpor ~max_classes:dpor ~cfg:explore_cfg ~verbose ~jobs) then
      ok := false
  end;
  if crash_every > 0 && replay = None && replay_choices = None then begin
    did := true;
    if not (run_sweep ~cfg:sweep_cfg ~verbose ~jobs) then ok := false
  end;
  if not !did then begin
    Printf.eprintf
      "nothing to do: pass --schedules N, --dpor N, --crash-every K, \
       --replay SEED, or --replay-choices LIST\n";
    exit 2
  end;
  exit (if !ok then 0 else 1)

open Cmdliner

let store =
  Arg.(value
       & opt
           (enum
              [ ("prism", `Prism); ("kvell", `Kvell); ("lsm", `Lsm);
                ("cluster", `Cluster) ])
           `Prism
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

let no_lsm_wal =
  Arg.(value & flag
       & info [ "no-lsm-wal" ]
           ~doc:"With $(b,--store lsm): disable the write-ahead log. The \
                 sweep must then report lost acknowledged writes.")

let fault =
  Arg.(value & opt (enum faults) Explore.No_fault
       & info [ "fault" ] ~docv:"FAULT"
         ~doc:"Deliberate bug to inject: $(b,none), $(b,svc) (skip cache \
               invalidation; breaks linearizability), $(b,hsit) (skip \
               pointer persists; loses acknowledged writes across crashes), \
               $(b,scan-stale) (serve repeat scans from a stale snapshot), \
               $(b,scan-skip-pwb) (scans miss write-buffered values), \
               $(b,scan-drop) (scans drop an in-range key), or \
               $(b,2pc-ack) (cluster commit records skip their persist, so \
               acks race durability; only the crash sweep can see it).")

let scan_every =
  Arg.(value & opt int 16 & info [ "scan-every" ] ~docv:"N"
         ~doc:"One in $(docv) reads of the explored workload becomes a \
               short scan (lower = more scan/write races).")

let delete_every =
  Arg.(value & opt int 8 & info [ "delete-every" ] ~docv:"N"
         ~doc:"One in $(docv) updates of the explored workload becomes a \
               delete.")

let threads =
  Arg.(value & opt int 4 & info [ "threads" ] ~docv:"T"
         ~doc:"Concurrent client threads.")

let ops =
  Arg.(value & opt int 48 & info [ "ops" ] ~docv:"OPS"
         ~doc:"Operations per thread.")

let records =
  Arg.(value & opt int 128 & info [ "records" ] ~docv:"R"
         ~doc:"Preloaded keys for schedule exploration (kept small to force \
               contention).")

let keys_per_thread =
  Arg.(value & opt int 24 & info [ "keys-per-thread" ] ~docv:"KEYS"
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
      const main $ store $ Cli.placement $ Cli.seed 1L $ schedules $ dpor
      $ crash_every $ replay $ replay_choices $ shrink $ no_lsm_wal $ fault
      $ scan_every $ delete_every $ threads $ ops $ records
      $ keys_per_thread $ Cli.shards $ Cli.txn_every $ Cli.jobs $ verbose)
