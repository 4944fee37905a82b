open Prism_sim
open Prism_fleet

let default =
  { Explore.default with Explore.ops_per_thread = 60; value_size = 128 }

type violation = {
  crash_point : int;
  boundary : string;
  key : string;
  detail : string;
}

type report = {
  crash_points : int;
  boundaries : (string * int) list;  (** boundary kind -> clean-run count *)
  violations : violation list;
}

(* Each thread owns a disjoint key range. With batches on (the cluster)
   every [txn_every]-th op is a write batch over the thread's own range —
   the keys still hash across shards, so most batches have several 2PC
   participants. Batch versions live in a reserved range (>= 1000) so a
   recovered value names exactly one write. *)
let workload (cfg : Explore.config) =
  let txn_every = Explore.txn_every cfg in
  let value key version =
    Prism_workload.Ycsb.value_for ~size:cfg.value_size ~key ~version
  in
  let thread_ops tid =
    let rng =
      Rng.create (Int64.add cfg.seed (Int64.of_int ((tid * 7919) + 1)))
    in
    let key_at i =
      Prism_workload.Ycsb.key_of ((tid * cfg.keys_per_thread) + i)
    in
    List.init cfg.ops_per_thread (fun j ->
        if txn_every > 0 && j mod txn_every = txn_every - 1 then
          let base = Rng.int rng cfg.keys_per_thread in
          let n = min cfg.keys_per_thread (2 + Rng.int rng 2) in
          Explore.Batch
            (List.init n (fun s ->
                 let key = key_at ((base + s) mod cfg.keys_per_thread) in
                 (key, value key (1000 + (j * 10) + s))))
        else
          let key = key_at (Rng.int rng cfg.keys_per_thread) in
          if Rng.int rng 5 = 0 then Explore.Delete key
          else Explore.Put (key, value key (j + 1)))
    |> Array.of_list
  in
  let keys = cfg.threads * cfg.keys_per_thread in
  {
    Explore.keys;
    preload = [];
    initial = Hashtbl.create 1;
    ops = Array.init cfg.threads thread_ops;
  }

(* On top of what the store can inject ([Explore.check_fault]), a sweep
   takes only a fault that is invisible live and loses writes across a
   crash: skipped HSIT pointer persists, skipped commit-record persists,
   or the LSM without its WAL. *)
let check_fault (cfg : Explore.config) =
  Explore.check_fault cfg;
  match cfg.fault with
  | Explore.No_fault | Skip_hsit_flush | Skip_2pc_log_flush | No_lsm_wal -> ()
  | Skip_svc_invalidate | Scan_stale_snapshot | Scan_skip_pwb | Scan_drop_key
    ->
      invalid_arg "Crash_sweep: a crash cannot show this fault"

(* ---- driver ----

   One clean run counts every boundary kind; each kind then sweeps every
   k-th ordinal up to its count. A store without hooks (KVell) sweeps an
   even virtual-time grid instead, sized to one crash per k executed
   events.

   Parallel shape: every crash target of every boundary kind becomes
   one job of a single farm, forked after the clean run — each job
   builds its own engine, store and history from [cfg], so jobs share
   nothing mutable. The merge walks each kind's results in ascending
   target order: count, collect violations, call [progress], and stop
   consuming that kind at the first run that completes uncut (it got
   past the last boundary, so every later target would too). The
   report is therefore the same for any [jobs]. *)

let targets_of ~k ~total =
  Array.init (total / k) (fun i -> (i + 1) * k)

let run ?(progress = fun ~boundary:_ ~crash_point:_ -> ()) ?(jobs = 1) cfg =
  check_fault cfg;
  (* An 8 KiB PWB, half the explorer's: reclamation then moves values
     to Value Storage early enough for a short sweep workload, built once
     and shared by every cut. *)
  let w = workload cfg in
  let run_once cut = Explore.run_once ~cut ~pwb_size:(8 * 1024) cfg w in
  let k = max 1 cfg.Explore.crash_every in
  let clean = run_once Explore.Clean in
  let sweeps =
    match clean.counts with
    | [] ->
        let n = max 1 (clean.executed / k) in
        [
          ( "virtual-time",
            n,
            targets_of ~k:1 ~total:n,
            fun i ->
              Explore.Grid
                (clean.clock *. float_of_int i /. float_of_int (n + 1), i) );
        ]
    | counts ->
        List.map
          (fun (name, total) ->
            (name, total, targets_of ~k ~total, fun n -> Explore.Boundary (name, n)))
          counts
  in
  let cuts =
    Array.concat
      (List.map (fun (_, _, targets, cut) -> Array.map cut targets) sweeps)
  in
  let runs = Fleet.farm ~jobs (Array.length cuts) (fun i -> run_once cuts.(i)) in
  let crash_points = ref 0 in
  let violations = ref [] in
  let first = ref 0 in
  List.iter
    (fun (name, _, targets, _) ->
      let base = !first in
      first := base + Array.length targets;
      try
        Array.iteri
          (fun i target ->
            let r : Explore.run = runs.(base + i) in
            match r.crashed with
            | Some (boundary, crash_point) ->
                incr crash_points;
                Option.iter
                  (fun v ->
                    violations :=
                      {
                        crash_point;
                        boundary;
                        key = v.Linearize.key;
                        detail = Format.asprintf "%a" Linearize.pp_violation v;
                      }
                      :: !violations)
                  r.violation;
                progress ~boundary:name ~crash_point:target
            | None -> raise Exit)
          targets
      with Exit -> ())
    sweeps;
  {
    crash_points = !crash_points;
    boundaries = List.map (fun (name, total, _, _) -> (name, total)) sweeps;
    violations = List.rev !violations;
  }
