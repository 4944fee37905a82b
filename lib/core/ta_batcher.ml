open Prism_sim
open Prism_device

type request = {
  entry : Io_uring.entry;
  handed : float Sync.Ivar.t Sync.Ivar.t;
}

type t = {
  engine : Engine.t;
  uring : Io_uring.t;
  limit : int;
  timeout : float;
  cost : Cost.t;
  queue : request Queue.t;
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
    cost;
    queue = Queue.create ();
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

let enqueue t entry =
  let r = { entry; handed = Sync.Ivar.create () } in
  Queue.add r t.queue;
  if Queue.length t.queue = 1 && not (Sync.Ivar.is_filled t.first_arrived)
  then Sync.Ivar.fill t.first_arrived ();
  if Queue.length t.queue >= t.limit && not (Sync.Ivar.is_filled t.full) then
    Sync.Ivar.fill t.full ();
  r

(* Dispatcher: wait for the first request, then give stragglers [timeout]
   seconds (or until the batch is full), then submit everything queued.
   The drain and ivar reset happen without an intervening suspension, so
   no enqueue can race between them. *)
let dispatcher t () =
  let rec loop () =
    Sync.Ivar.read t.first_arrived;
    if Queue.length t.queue < t.limit then
      ignore (Sync.Ivar.read_with_timeout t.full t.timeout);
    let batch = ref [] in
    let n = ref 0 in
    while !n < t.limit && not (Queue.is_empty t.queue) do
      batch := Queue.pop t.queue :: !batch;
      incr n
    done;
    let leftovers_pending = not (Queue.is_empty t.queue) in
    t.first_arrived <- Sync.Ivar.create ();
    t.full <- Sync.Ivar.create ();
    if leftovers_pending then begin
      Sync.Ivar.fill t.first_arrived ();
      if Queue.length t.queue >= t.limit then Sync.Ivar.fill t.full ()
    end;
    let batch = List.rev !batch in
    if batch <> [] then begin
      Metric.Counter.incr t.batches;
      Metric.Counter.add t.reqs !n;
      let ivars =
        Io_uring.submit t.uring (List.map (fun r -> r.entry) batch)
      in
      List.iter2 (fun r ivar -> Sync.Ivar.fill r.handed ivar) batch ivars
    end;
    loop ()
  in
  loop ()

let start t =
  if t.running then invalid_arg "Ta_batcher.start: already running";
  t.running <- true;
  Engine.spawn t.engine (dispatcher t)

let await r =
  let completion = Sync.Ivar.read r.handed in
  ignore (Sync.Ivar.read completion)

let read t entry =
  Engine.delay t.cost.Cost.cache_op;
  let r = enqueue t entry in
  await r

let read_many t entries =
  match entries with
  | [] -> ()
  | entries ->
      Engine.delay t.cost.Cost.cache_op;
      let rs = List.map (fun e -> enqueue t e) entries in
      List.iter await rs
