open Prism_sim

type entry = { dir : Model.direction; size : int; action : unit -> unit }

type t = {
  engine : Engine.t;
  model : Model.t;
  queue_depth : int;
  cost : Cost.t;
  slots : Sync.Semaphore.t;
  mutable in_flight : int;
  submits : Metric.Counter.t; (* submit calls (batches) *)
  sqes : Metric.Counter.t; (* entries across all submits *)
}

let create engine model ~queue_depth ~cost =
  if queue_depth <= 0 then invalid_arg "Io_uring.create: queue_depth <= 0";
  {
    engine;
    model;
    queue_depth;
    cost;
    slots = Sync.Semaphore.create queue_depth;
    in_flight = 0;
    submits = Metric.Counter.create ();
    sqes = Metric.Counter.create ();
  }

let submit t entries =
  let n = List.length entries in
  if n = 0 then []
  else begin
    Metric.Counter.incr t.submits;
    Metric.Counter.add t.sqes n;
    (* Syscall cost: one io_uring_enter per ring-full of SQEs. *)
    let enters = (n + t.queue_depth - 1) / t.queue_depth in
    Engine.delay
      ((float_of_int enters *. t.cost.Cost.uring_submit)
      +. (float_of_int n *. t.cost.Cost.uring_sqe));
    (* Reserve ring slots one entry at a time: a batch larger than the
       ring drains completions as it goes instead of deadlocking on its
       own occupancy. *)
    List.map
      (fun entry ->
        Sync.Semaphore.acquire t.slots;
        let ivar = Sync.Ivar.create () in
        t.in_flight <- t.in_flight + 1;
        Model.submit_then t.model entry.dir ~size:entry.size (fun () ->
            entry.action ();
            t.in_flight <- t.in_flight - 1;
            Sync.Semaphore.release t.slots;
            Sync.Ivar.fill ivar (Engine.now t.engine));
        ivar)
      entries
  end

let submit_and_wait t entries =
  let ivars = submit t entries in
  List.fold_left
    (fun acc ivar ->
      let c = Sync.Ivar.read ivar in
      (* Reaping a CQE costs a little CPU. *)
      Engine.delay t.cost.Cost.uring_reap;
      Float.max acc c)
    (Engine.now t.engine) ivars

let in_flight t = t.in_flight

let is_idle t = t.in_flight = 0

let register_stats t stats ~prefix =
  Stats.register_counter stats (prefix ^ ".submits") t.submits;
  Stats.register_counter stats (prefix ^ ".sqes") t.sqes;
  Stats.gauge_int stats (prefix ^ ".in_flight") (fun () -> t.in_flight)
