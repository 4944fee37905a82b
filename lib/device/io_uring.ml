open Prism_sim

type entry = { dir : Model.direction; size : int; action : unit -> unit }

(* The events a process can wait for on a request, as bits of [flags]. *)
let handed = 1

let completed = 2

type request = {
  dir : Model.direction;
  mutable size : int;
  action : unit -> unit;
  mutable flags : int;
  mutable want : int; (* the bit [waiter] waits for; 0 when none waits *)
  mutable waiter : unit -> unit;
  mutable finish : unit -> unit;
      (* the completion event, built once per request, so a submission
         queues it without building a closure *)
}

type t = {
  model : Model.t;
  queue_depth : int;
  cost : Cost.t;
  costs : float array;
      (* [costs.(0)]: the syscall charge being paid; [costs.(1)]: the
         reap cost. Cells, so neither crosses into the engine boxed. *)
  slots : Sync.Semaphore.t;
  mutable in_flight : int;
  submits : Metric.Counter.t; (* submit calls (batches) *)
  sqes : Metric.Counter.t; (* entries across all submits *)
}

let create (_ : Engine.t) model ~queue_depth ~cost =
  if queue_depth <= 0 then invalid_arg "Io_uring.create: queue_depth <= 0";
  {
    model;
    queue_depth;
    cost;
    costs = [| 0.0; cost.Cost.uring_reap |];
    slots = Sync.Semaphore.create queue_depth;
    in_flight = 0;
    submits = Metric.Counter.create ();
    sqes = Metric.Counter.create ();
  }

(* Set [bit] and wake the process waiting for it, if one is. *)
let signal r bit =
  r.flags <- r.flags lor bit;
  if r.want land bit <> 0 then begin
    let resume = r.waiter in
    r.want <- 0;
    r.waiter <- ignore;
    resume ()
  end

let complete t r () =
  r.action ();
  t.in_flight <- t.in_flight - 1;
  Sync.Semaphore.release t.slots;
  signal r completed

let request t ~dir ~size action =
  let r =
    { dir; size; action; flags = 0; want = 0; waiter = ignore; finish = ignore }
  in
  r.finish <- complete t r;
  r

let of_entry t (e : entry) = request t ~dir:e.dir ~size:e.size e.action

let rearm r ~size =
  r.size <- size;
  r.flags <- 0

let size r = r.size

(* The request whose waiter is being registered: [Engine.suspend] calls
   [park] at once, so one shared registration closure serves every
   wait. *)
let no_request =
  {
    dir = Model.Read;
    size = 0;
    action = ignore;
    flags = 0;
    want = 0;
    waiter = ignore;
    finish = ignore;
  }

let parking = ref no_request

let park resume =
  let r = !parking in
  parking := no_request;
  r.waiter <- resume

let wait_for r bit =
  if r.flags land bit = 0 then begin
    r.want <- bit;
    parking := r;
    Engine.suspend park
  end

let await r = wait_for r completed

let hand_off r = signal r handed

let await_combined r =
  wait_for r handed;
  wait_for r completed

let submit_batch t reqs n =
  if n > 0 then begin
    Metric.Counter.incr t.submits;
    Metric.Counter.add t.sqes n;
    (* Syscall cost: one io_uring_enter per ring-full of SQEs. *)
    let enters = (n + t.queue_depth - 1) / t.queue_depth in
    t.costs.(0) <-
      (float_of_int enters *. t.cost.Cost.uring_submit)
      +. (float_of_int n *. t.cost.Cost.uring_sqe);
    Engine.delay_cell t.costs 0;
    (* Reserve ring slots one entry at a time: a batch larger than the
       ring drains completions as it goes instead of deadlocking on its
       own occupancy. *)
    for i = 0 to n - 1 do
      let r = reqs.(i) in
      Sync.Semaphore.acquire t.slots;
      t.in_flight <- t.in_flight + 1;
      Model.submit_then t.model r.dir ~size:r.size r.finish
    done
  end

let submit t entries =
  let reqs = Array.of_list (List.map (of_entry t) entries) in
  submit_batch t reqs (Array.length reqs);
  Array.to_list reqs

let submit_and_wait t entries =
  List.iter
    (fun r ->
      await r;
      (* Reaping a CQE costs a little CPU. *)
      Engine.delay_cell t.costs 1)
    (submit t entries)

let in_flight t = t.in_flight

let is_idle t = t.in_flight = 0

let register_stats t stats ~prefix =
  Stats.register_counter stats (prefix ^ ".submits") t.submits;
  Stats.register_counter stats (prefix ^ ".sqes") t.sqes;
  Stats.gauge_int stats (prefix ^ ".in_flight") (fun () -> t.in_flight)
