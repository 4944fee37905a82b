(* Tests for the device layer: Figure 1 catalogue, timing model
   (bandwidth ceiling, latency, queueing), io_uring engine (batch cost,
   ring limits, completion actions), RAID-0 striping, cost model. *)

open Prism_sim
open Prism_device
open Helpers

(* ---- Spec ---- *)

let test_spec_catalogue () =
  Alcotest.(check int) "five rows" 5 (List.length Spec.catalogue);
  Alcotest.(check bool) "nvm latency below ssd" true
    (Spec.optane_dcpmm.Spec.read_lat < Spec.samsung_980_pro.Spec.read_lat);
  Alcotest.(check bool) "ssd bandwidth above nvm (reads, PCIe4)" true
    (Spec.samsung_980_pro.Spec.read_bw > Spec.optane_dcpmm.Spec.read_bw);
  Alcotest.(check bool) "ssd cheaper" true
    (Spec.samsung_980_pro.Spec.cost_per_tb < Spec.optane_dcpmm.Spec.cost_per_tb)

let test_spec_cost_ratio () =
  (* Figure 1: NVM is ~27x the $/TB of the PCIe4 flash SSD. *)
  let ratio =
    Spec.optane_dcpmm.Spec.cost_per_tb /. Spec.samsung_980_pro.Spec.cost_per_tb
  in
  Alcotest.(check bool) "~27x" true (ratio > 26.0 && ratio < 28.5)

let test_spec_cost_of_gb () =
  check_approx "20GB of SSD"
    (Spec.cost_of_gb Spec.samsung_980_pro 20.0)
    3.0

(* ---- Model ---- *)

let test_model_single_read_latency () =
  in_sim (fun e ->
      let d = Model.create e Spec.samsung_980_pro in
      let t0 = Engine.now e in
      Model.access d Model.Read ~size:4096;
      let elapsed = Engine.now e -. t0 in
      (* latency 50us + 4K/7GBps ~= 50.6us *)
      Alcotest.(check bool) "roughly one read latency" true
        (elapsed > 50e-6 && elapsed < 52e-6))

let test_model_write_cheaper_latency () =
  in_sim (fun e ->
      let d = Model.create e Spec.samsung_980_pro in
      let t0 = Engine.now e in
      Model.access d Model.Write ~size:4096;
      let elapsed = Engine.now e -. t0 in
      Alcotest.(check bool) "write ~20us" true
        (elapsed > 20e-6 && elapsed < 22e-6))

let test_model_bandwidth_ceiling () =
  (* 100 MiB of sequential writes cannot finish faster than size/bw. *)
  let elapsed =
    in_sim (fun e ->
        let d = Model.create e Spec.samsung_980_pro in
        let t0 = Engine.now e in
        for _ = 1 to 100 do
          Model.access d Model.Write ~size:(1024 * 1024)
        done;
        Engine.now e -. t0)
  in
  let floor = 100.0 *. 1024.0 *. 1024.0 /. Spec.samsung_980_pro.Spec.write_bw in
  Alcotest.(check bool) "not faster than bandwidth" true (elapsed >= floor);
  Alcotest.(check bool) "not much slower either" true
    (elapsed < (floor *. 1.2) +. 0.01)

let test_model_concurrent_queueing () =
  (* Two concurrent large transfers serialize through the pipeline, so the
     second completes later than it would alone. *)
  let e = Engine.create () in
  let d = Model.create e Spec.samsung_980_pro in
  let done_times = ref [] in
  for _ = 1 to 2 do
    Engine.spawn e (fun () ->
        Model.access d Model.Read ~size:(7 * 1024 * 1024);
        done_times := Engine.now e :: !done_times)
  done;
  ignore (Engine.run e);
  match List.sort compare !done_times with
  | [ a; b ] ->
      Alcotest.(check bool) "second queues behind first" true (b > a *. 1.5)
  | _ -> Alcotest.fail "expected two completions"

let test_model_stats () =
  in_sim (fun e ->
      let d = Model.create e Spec.samsung_980_pro in
      Model.access d Model.Write ~size:100;
      Model.access d Model.Read ~size:200;
      Model.access d Model.Read ~size:300;
      Alcotest.(check int) "bytes written" 100 (Model.bytes_written d);
      Alcotest.(check int) "bytes read" 500 (Model.bytes_read d);
      Alcotest.(check int) "writes" 1 (Model.writes d);
      Alcotest.(check int) "reads" 2 (Model.reads d);
      Model.reset_stats d;
      Alcotest.(check int) "reset" 0 (Model.bytes_written d))

let test_model_in_flight () =
  let e = Engine.create () in
  let d = Model.create e Spec.samsung_980_pro in
  Engine.spawn e (fun () ->
      ignore (Model.submit d Model.Read ~size:4096);
      Alcotest.(check int) "one in flight" 1 (Model.in_flight d));
  ignore (Engine.run e);
  Alcotest.(check int) "drained" 0 (Model.in_flight d)

(* ---- Io_uring ---- *)

let make_uring ?(qd = 8) e =
  let d = Model.create e Spec.samsung_980_pro in
  (d, Io_uring.create e d ~queue_depth:qd ~cost:Cost.default)

let test_uring_actions_run_at_completion () =
  in_sim (fun e ->
      let _, u = make_uring e in
      let fired = ref false in
      let entry =
        {
          Io_uring.dir = Model.Read;
          size = 512;
          action = (fun () -> fired := true);
        }
      in
      Alcotest.(check bool) "not yet" false !fired;
      ignore (Io_uring.submit_and_wait u [ entry ]);
      Alcotest.(check bool) "after completion" true !fired)

let test_uring_batch_amortizes_cpu () =
  (* Submitting n entries in one call charges ~1 syscall; n calls charge
     n syscalls. Compare submitter CPU time before any waiting. *)
  let submit_time batched =
    in_sim (fun e ->
        let _, u = make_uring ~qd:64 e in
        let entries =
          List.init 32 (fun _ ->
              { Io_uring.dir = Model.Write; size = 512; action = ignore })
        in
        let t0 = Engine.now e in
        if batched then ignore (Io_uring.submit u entries)
        else List.iter (fun en -> ignore (Io_uring.submit u [ en ])) entries;
        Engine.now e -. t0)
  in
  let batched = submit_time true in
  let unbatched = submit_time false in
  Alcotest.(check bool) "batching is cheaper for the CPU" true
    (batched < unbatched /. 2.0)

let test_uring_ring_limit_blocks () =
  (* With queue depth 2, a burst of 6 entries still completes (incremental
     slot acquisition), and in-flight never exceeds 2. *)
  in_sim (fun e ->
      let _, u = make_uring ~qd:2 e in
      let peak = ref 0 in
      let entries =
        List.init 6 (fun _ ->
            {
              Io_uring.dir = Model.Read;
              size = 4096;
              action =
                (fun () ->
                  if Io_uring.in_flight u > !peak then
                    peak := Io_uring.in_flight u);
            })
      in
      ignore (Io_uring.submit_and_wait u entries);
      Alcotest.(check bool) "bounded by ring" true (!peak <= 2))

let test_uring_is_idle () =
  in_sim (fun e ->
      let _, u = make_uring e in
      Alcotest.(check bool) "idle initially" true (Io_uring.is_idle u);
      let entry = { Io_uring.dir = Model.Read; size = 512; action = ignore } in
      let reqs = Io_uring.submit u [ entry ] in
      Alcotest.(check bool) "busy while in flight" false (Io_uring.is_idle u);
      List.iter Io_uring.await reqs;
      Alcotest.(check bool) "idle after completion" true (Io_uring.is_idle u))

let test_uring_empty_submit () =
  in_sim (fun e ->
      let _, u = make_uring e in
      Alcotest.(check int) "no ivars" 0 (List.length (Io_uring.submit u [])))

let test_uring_completion_order_parallel () =
  let e = Engine.create () in
  let d = Model.create e Spec.samsung_980_pro in
  let u = Io_uring.create e d ~queue_depth:64 ~cost:Cost.default in
  let completions = ref 0 in
  for _ = 1 to 10 do
    Engine.spawn e (fun () ->
        let entry =
          { Io_uring.dir = Model.Read; size = 4096; action = ignore }
        in
        ignore (Io_uring.submit_and_wait u [ entry ]);
        incr completions)
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "all completed" 10 !completions

(* ---- Raid ---- *)

let test_raid_stripes_across_devices () =
  in_sim (fun e ->
      let d1 = Model.create e Spec.samsung_980_pro in
      let d2 = Model.create e Spec.samsung_980_pro in
      let r = Raid.create ~stripe_unit:4096 [ d1; d2 ] in
      (* A 64 KiB write at offset 0 splits evenly over both members. *)
      Raid.access r Model.Write ~off:0 ~size:(64 * 1024);
      Alcotest.(check int) "d1 share" (32 * 1024) (Model.bytes_written d1);
      Alcotest.(check int) "d2 share" (32 * 1024) (Model.bytes_written d2))

let test_raid_aggregate_bandwidth () =
  let time_for n =
    in_sim (fun e ->
        let devices =
          List.init n (fun _ -> Model.create e Spec.samsung_980_pro)
        in
        let r = Raid.create ~stripe_unit:(64 * 1024) devices in
        let t0 = Engine.now e in
        for i = 0 to 63 do
          Raid.access r Model.Write ~off:(i * 1024 * 1024) ~size:(1024 * 1024)
        done;
        Engine.now e -. t0)
  in
  let one = time_for 1 in
  let two = time_for 2 in
  Alcotest.(check bool) "scales with members" true (two < one /. 1.6)

let test_raid_single_device_passthrough () =
  in_sim (fun e ->
      let d = Model.create e Spec.samsung_980_pro in
      let r = Raid.create [ d ] in
      Raid.access r Model.Read ~off:0 ~size:8192;
      Alcotest.(check int) "all on the only member" 8192 (Model.bytes_read d);
      Alcotest.(check int) "aggregate" 8192 (Raid.bytes_read r))

let test_raid_rejects_empty () =
  Alcotest.check_raises "no devices"
    (Invalid_argument "Raid.create: no devices") (fun () ->
      ignore (Raid.create []))

let test_raid_unaligned_request () =
  in_sim (fun e ->
      let d1 = Model.create e Spec.samsung_980_pro in
      let d2 = Model.create e Spec.samsung_980_pro in
      let r = Raid.create ~stripe_unit:4096 [ d1; d2 ] in
      (* 6 KiB starting mid-stripe: 2 KiB on the first member's stripe,
         4 KiB on the second. *)
      Raid.access r Model.Write ~off:2048 ~size:6144;
      Alcotest.(check int) "total split" 6144
        (Model.bytes_written d1 + Model.bytes_written d2);
      Alcotest.(check bool) "both touched" true
        (Model.bytes_written d1 > 0 && Model.bytes_written d2 > 0))

(* ---- Cost ---- *)

let test_cost_memcpy () =
  check_approx "1GB copy time"
    (Cost.memcpy Cost.default 1_000_000_000)
    (1.0 /. 15.0);
  Alcotest.(check (float 0.0)) "zero bytes" 0.0 (Cost.memcpy Cost.default 0)

let test_cost_sane_magnitudes () =
  let c = Cost.default in
  Alcotest.(check bool) "syscall in the us range" true
    (c.Cost.syscall > 1e-6 && c.Cost.syscall < 1e-5);
  Alcotest.(check bool) "uring submit cheaper than syscall" true
    (c.Cost.uring_submit < c.Cost.syscall);
  Alcotest.(check bool) "atomic in the ns range" true
    (c.Cost.atomic_op > 1e-9 && c.Cost.atomic_op < 1e-7)

let () =
  Alcotest.run "device"
    [
      ( "spec",
        [
          case "catalogue" test_spec_catalogue;
          case "cost ratio" test_spec_cost_ratio;
          case "cost of gb" test_spec_cost_of_gb;
        ] );
      ( "model",
        [
          case "read latency" test_model_single_read_latency;
          case "write latency" test_model_write_cheaper_latency;
          case "bandwidth ceiling" test_model_bandwidth_ceiling;
          case "queueing" test_model_concurrent_queueing;
          case "stats" test_model_stats;
          case "in flight" test_model_in_flight;
        ] );
      ( "io_uring",
        [
          case "actions at completion" test_uring_actions_run_at_completion;
          case "batch amortizes cpu" test_uring_batch_amortizes_cpu;
          case "ring limit" test_uring_ring_limit_blocks;
          case "is idle" test_uring_is_idle;
          case "empty submit" test_uring_empty_submit;
          case "parallel completions" test_uring_completion_order_parallel;
        ] );
      ( "raid",
        [
          case "stripes" test_raid_stripes_across_devices;
          case "aggregate bandwidth" test_raid_aggregate_bandwidth;
          case "single member" test_raid_single_device_passthrough;
          case "rejects empty" test_raid_rejects_empty;
          case "unaligned" test_raid_unaligned_request;
        ] );
      ( "cost",
        [
          case "memcpy" test_cost_memcpy;
          case "magnitudes" test_cost_sane_magnitudes;
        ] );
    ]
