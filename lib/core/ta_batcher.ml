open Prism_sim
open Prism_device

type t = {
  engine : Engine.t;
  uring : Io_uring.t;
  limit : int;
  timeout : float;
  costs : float array; (* [| cache_op |], handed to the engine unboxed *)
  queue : Io_uring.request Ring.t;
  mutable batch : Io_uring.request array;
      (* the dispatcher's drain buffer, [limit] long from the first drain; a
         cell past the current batch may still name a finished request *)
  mutable first_arrived : unit Sync.Ivar.t;
  mutable full : unit Sync.Ivar.t;
  batches : Metric.Counter.t;
  reqs : Metric.Counter.t;
  mutable running : bool;
}

let create ?(timeout = 100e-6) engine uring ~limit ~cost =
  if limit <= 0 then invalid_arg "Ta_batcher.create: limit <= 0";
  if timeout <= 0.0 then invalid_arg "Ta_batcher.create: timeout <= 0";
  {
    engine;
    uring;
    limit;
    timeout;
    costs = [| cost.Cost.cache_op |];
    queue = Ring.create ();
    batch = [||];
    first_arrived = Sync.Ivar.create ();
    full = Sync.Ivar.create ();
    batches = Metric.Counter.create ();
    reqs = Metric.Counter.create ();
    running = false;
  }

let batches t = Metric.Counter.value t.batches

let requests t = Metric.Counter.value t.reqs

let register_stats t stats ~prefix =
  Stats.register_counter stats (prefix ^ ".batches") t.batches;
  Stats.register_counter stats (prefix ^ ".requests") t.reqs

let enqueue t r =
  Ring.push t.queue r;
  if Ring.length t.queue = 1 && not (Sync.Ivar.is_filled t.first_arrived)
  then Sync.Ivar.fill t.first_arrived ();
  if Ring.length t.queue >= t.limit && not (Sync.Ivar.is_filled t.full) then
    Sync.Ivar.fill t.full ()

(* Dispatcher: wait for the first request, then give stragglers [timeout]
   seconds (or until the batch is full), then submit everything queued.
   The drain and ivar reset happen without an intervening suspension, so
   no enqueue can race between them. *)
let rec dispatch t =
  Sync.Ivar.read t.first_arrived;
  if Ring.length t.queue < t.limit then
    ignore (Sync.Ivar.read_with_timeout t.full t.timeout);
  let n = ref 0 in
  while !n < t.limit && not (Ring.is_empty t.queue) do
    let r = Ring.pop t.queue in
    if Array.length t.batch = 0 then t.batch <- Array.make t.limit r;
    t.batch.(!n) <- r;
    incr n
  done;
  let n = !n in
  let leftovers_pending = not (Ring.is_empty t.queue) in
  t.first_arrived <- Sync.Ivar.create ();
  t.full <- Sync.Ivar.create ();
  if leftovers_pending then begin
    Sync.Ivar.fill t.first_arrived ();
    if Ring.length t.queue >= t.limit then Sync.Ivar.fill t.full ()
  end;
  if n > 0 then begin
    Metric.Counter.incr t.batches;
    Metric.Counter.add t.reqs n;
    Io_uring.submit_batch t.uring t.batch n;
    for i = 0 to n - 1 do
      Io_uring.hand_off t.batch.(i)
    done
  end;
  dispatch t

let start t =
  if t.running then invalid_arg "Ta_batcher.start: already running";
  t.running <- true;
  Engine.spawn t.engine (fun () -> dispatch t)

let read_request t r =
  Engine.delay_cell t.costs 0;
  enqueue t r;
  Io_uring.await_combined r

let read_requests t reqs n =
  if n > 0 then begin
    Engine.delay_cell t.costs 0;
    for i = 0 to n - 1 do
      enqueue t reqs.(i)
    done;
    for i = 0 to n - 1 do
      Io_uring.await_combined reqs.(i)
    done
  end

let read t entry = read_request t (Io_uring.of_entry t.uring entry)
