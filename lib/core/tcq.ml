open Prism_sim
open Prism_device

type t = {
  uring : Io_uring.t;
  limit : int;
  costs : float array; (* [| atomic_op; cache_op |], handed to the engine unboxed *)
  queue : Io_uring.request Ring.t;
  mutable batch : Io_uring.request array;
      (* the leader's drain buffer, [limit] long from the first drain; a
         cell past the current batch may still name a finished request *)
  mutable leader_active : bool;
  batches : Metric.Counter.t;
  reqs : Metric.Counter.t;
}

let create uring ~limit ~cost =
  if limit <= 0 then invalid_arg "Tcq.create: limit <= 0";
  {
    uring;
    limit;
    costs = [| cost.Cost.atomic_op; cost.Cost.cache_op |];
    queue = Ring.create ();
    batch = [||];
    leader_active = false;
    batches = Metric.Counter.create ();
    reqs = Metric.Counter.create ();
  }

let batches t = Metric.Counter.value t.batches

let requests t = Metric.Counter.value t.reqs

let register_stats t stats ~prefix =
  Stats.register_counter stats (prefix ^ ".batches") t.batches;
  Stats.register_counter stats (prefix ^ ".requests") t.reqs

(* The leader drains the TCQ in batches of at most [limit], submitting each
   batch as one io_uring call, until the queue is empty. Draining the queue
   before releasing leadership guarantees no enqueued request is ever
   stranded: a new arrival either sees an active leader (and is a follower)
   or becomes the leader itself. *)
let rec drive_leader t =
  if Ring.is_empty t.queue then t.leader_active <- false
  else begin
    (* Traverse the TCQ, collecting up to [limit] requests. *)
    let n = ref 0 in
    while !n < t.limit && not (Ring.is_empty t.queue) do
      let r = Ring.pop t.queue in
      if Array.length t.batch = 0 then t.batch <- Array.make t.limit r;
      t.batch.(!n) <- r;
      incr n;
      Engine.delay_cell t.costs 1
    done;
    let n = !n in
    Metric.Counter.incr t.batches;
    Metric.Counter.add t.reqs n;
    Io_uring.submit_batch t.uring t.batch n;
    for i = 0 to n - 1 do
      Io_uring.hand_off t.batch.(i)
    done;
    drive_leader t
  end

let enqueue t r =
  (* Atomic swap on the TCQ tail (MCS-style enqueue). *)
  Engine.delay_cell t.costs 0;
  Ring.push t.queue r

let lead t =
  if not t.leader_active then begin
    t.leader_active <- true;
    drive_leader t
  end

let read_request t r =
  enqueue t r;
  lead t;
  Io_uring.await_combined r

let read_requests t reqs n =
  if n > 0 then begin
    for i = 0 to n - 1 do
      enqueue t reqs.(i)
    done;
    lead t;
    for i = 0 to n - 1 do
      Io_uring.await_combined reqs.(i)
    done
  end

let read t entry = read_request t (Io_uring.of_entry t.uring entry)

let read_many t entries =
  let reqs = Array.of_list (List.map (Io_uring.of_entry t.uring) entries) in
  read_requests t reqs (Array.length reqs)
