(* The six workloads (why each exists is in Spec.workloads). Every store
   workload is closed-loop with 16 simulated clients on 2 SSDs unless
   stated; sizes keep one round at a few host seconds so a run repeats
   rounds and reports medians. *)

module Explore = Prism_check.Explore

type t =
  | Store of Rounds.shape
  | Check of {
      walk : Explore.config;
      walks : int;  (** DPOR walks per round, one seed each *)
      classes : int;  (** classes per walk *)
      replica : Rounds.shape;
          (** a checker-sized store run closed-loop: Explore reports no
              per-op latency, so the virtual metrics of dpor-check come
              from this run *)
    }

let mix ?(get = 0.0) ?(update = 0.0) ?(scan = 0.0) ?(insert = 0.0) ?(batch_every = 0)
    ?(batch_width = 1) ?(scan_max = 1) () =
  { Inputs.get; update; scan; insert; batch_every; batch_width; scan_max }

let shape ?(clients = 16) ?(value_size = 256) ?theta ?(shards = 1) ?pwb_size ~records ~ops
    mix =
  { Rounds.records; ops; clients; value_size; theta; mix; shards; pwb_size }

(* A small, contended store sized like the checker's (64 B values, 16 KiB
   PWBs, Zipf 0.6, YCSB-A), with 16 clients so its latency tail and
   recovery vary with the seed. The checker's scans and deletes are left
   out: scans take no client lock (see Rounds.locks). *)
let checker_store ~records ~ops =
  shape ~value_size:64 ~theta:0.6 ~pwb_size:(16 * 1024) ~records ~ops
    (mix ~get:0.5 ~update:0.5 ())

let get = function
  | "ycsb-c-hot" ->
      Some (Store (shape ~theta:0.99 ~records:50_000 ~ops:300_000 (mix ~get:1.0 ())))
  | "ycsb-c-uniform" ->
      Some (Store (shape ~records:50_000 ~ops:100_000 (mix ~get:1.0 ())))
  | "ycsb-a-zipf" ->
      Some
        (Store
           (shape ~theta:0.99 ~records:50_000 ~ops:200_000 (mix ~get:0.5 ~update:0.5 ())))
  | "ycsb-e-scan" ->
      Some
        (Store
           (shape ~theta:0.99 ~records:50_000 ~ops:15_000
              (mix ~scan:0.95 ~insert:0.05 ~scan_max:100 ())))
  | "cluster-txn" ->
      Some
        (Store
           (shape ~theta:0.99 ~shards:4 ~records:32_000 ~ops:100_000
              (mix ~get:0.5 ~update:0.5 ~batch_every:8 ~batch_width:4 ())))
  | "dpor-check" ->
      Some
        (Check
           {
             walk = Explore.default;
             walks = 8;
             classes = 8;
             replica = checker_store ~records:1024 ~ops:12_000;
           })
  | _ -> None

(* Test-sized variants: the same mixes on a few thousand keys, with
   checker-sized PWBs so values still reach Value Storage and the SVC. *)
let tiny = function
  | Store s ->
      Store
        {
          s with
          Rounds.records = max 128 (s.Rounds.records / 50);
          ops = max 2_000 (s.Rounds.ops / 50);
          pwb_size = Some (16 * 1024);
        }
  | Check c ->
      Check
        {
          walk = { c.walk with Explore.ops_per_thread = 8; records = 32 };
          walks = 1;
          classes = 2;
          replica = checker_store ~records:256 ~ops:2_000;
        }
