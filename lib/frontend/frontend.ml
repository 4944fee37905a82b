open Prism_sim
open Prism_workload
open Prism_harness

type policy = Unbounded | Bounded of int

let name = function Unbounded -> "unbounded" | Bounded _ -> "bounded"

let describe = function
  | Unbounded -> "unbounded"
  | Bounded b -> Printf.sprintf "bounded(%d)" b

let of_string ~servers s =
  match String.split_on_char '=' (String.lowercase_ascii (String.trim s)) with
  | [ "unbounded" ] -> Ok Unbounded
  | [ "bounded" ] ->
      (* ~25 service slots of queueing delay at full drain rate: a queue
         of depth d costs about d / servers slots of wait. *)
      Ok (Bounded (max 16 (25 * servers)))
  | [ "bounded"; v ] -> (
      match int_of_string_opt v with
      | Some b when b > 0 -> Ok (Bounded b)
      | _ -> Error (Printf.sprintf "bounded=%s: positive integer expected" v))
  | _ -> Error (Printf.sprintf "unknown policy %S (unbounded | bounded[=N])" s)

let admits policy ~depth =
  match policy with Unbounded -> true | Bounded b -> depth < b

type result = {
  store : string;
  policy : string;
  offered_rate : float;
  offered : int;
  accepted : int;
  shed : int;
  completed : int;
  max_depth : int;
  elapsed : float;
  goodput : float;
  wait : Hist.t;
  service : Hist.t;
  sojourn : Hist.t;
}

let shed_rate r =
  if r.offered = 0 then 0.0 else float_of_int r.shed /. float_of_int r.offered

let pp_result fmt r =
  Format.fprintf fmt
    "%-12s %-22s offered %8.0f/s -> goodput %8.0f/s  shed %5.1f%%  depth<=%-6d \
     p50 %7.1fus p99 %8.1fus p999 %9.1fus"
    r.store r.policy r.offered_rate r.goodput
    (100.0 *. shed_rate r)
    r.max_depth
    (Hist.us_of_ns (Hist.quantile r.sojourn 50.0))
    (Hist.us_of_ns (Hist.quantile r.sojourn 99.0))
    (Hist.us_of_ns (Hist.quantile r.sojourn 99.9))

type item = Req of float * int (* arrival time, trace index *) | Poison

let run ~servers engine kv ~policy ~offered_rate ~trace =
  if servers <= 0 then invalid_arg "Frontend.run: servers must be positive";
  let ops = Array.length trace in
  if ops = 0 then invalid_arg "Frontend.run: empty trace";
  let reg = Engine.stats engine in
  let mb : item Sync.Mailbox.t = Sync.Mailbox.create () in
  let depth () = Sync.Mailbox.length mb in
  (* Result histograms are registered in the engine registry, so one
     object feeds both the returned result and the JSON export. *)
  let wait = Hist.create () and service = Hist.create () in
  let sojourn = Hist.create () and depth_hist = Hist.create () in
  Stats.register_histogram reg "frontend.wait" wait;
  Stats.register_histogram reg "frontend.service" service;
  Stats.register_histogram reg "frontend.sojourn" sojourn;
  Stats.register_histogram reg "frontend.queue.depth" depth_hist;
  Stats.gauge_int reg "frontend.queue.depth.live" depth;
  let offered = Stats.counter reg "frontend.offered" in
  let accepted = Stats.counter reg "frontend.accepted" in
  let shed = Stats.counter reg "frontend.shed.admission" in
  let completed = Stats.counter reg "frontend.completed" in
  let duration = trace.(ops - 1).Trace.at in
  let tl_interval = Float.max 1e-4 (duration /. 100.0) in
  let tl_goodput = Stats.timeline reg "frontend.goodput" ~interval:tl_interval in
  let tl_shed = Stats.timeline reg "frontend.shed" ~interval:tl_interval in
  let kv_wait =
    let h kind = Kv.wait_histogram engine kv kind in
    let put = h Kv.Put and get = h Kv.Get in
    let delete = h Kv.Delete and scan = h Kv.Scan in
    function
    | Kv.Put -> put | Kv.Get -> get | Kv.Delete -> delete | Kv.Scan -> scan
  in
  let max_depth = ref 0 in
  let first_arrival = ref nan in
  let last_completion = ref nan in
  (* Generator: one process releases each request at its arrival stamp and
     runs the admission decision; accepted requests join the FIFO queue. *)
  Engine.spawn engine (fun () ->
      let prev = ref 0.0 in
      Array.iteri
        (fun i { Trace.at; _ } ->
          Engine.delay (at -. !prev);
          prev := at;
          let now = Engine.now engine in
          if Float.is_nan !first_arrival then first_arrival := now;
          let depth = depth () in
          Metric.Counter.incr offered;
          Hist.record depth_hist depth;
          if admits policy ~depth then begin
            Metric.Counter.incr accepted;
            Sync.Mailbox.send mb (Req (now, i));
            if depth + 1 > !max_depth then max_depth := depth + 1
          end
          else begin
            Metric.Counter.incr shed;
            Metric.Timeline.tick tl_shed ~now
          end)
        trace;
      (* FIFO: the poison pills sort behind every accepted request, so
         each server drains its share of the queue before exiting. *)
      for _ = 1 to servers do
        Sync.Mailbox.send mb Poison
      done);
  let latch = Sync.Latch.create servers in
  for tid = 0 to servers - 1 do
    Engine.spawn engine (fun () ->
        let rec serve () =
          match Sync.Mailbox.recv mb with
          | Poison -> Sync.Latch.arrive latch
          | Req (arrived, i) ->
              let now = Engine.now engine in
              let wait_s = now -. arrived in
              let op = trace.(i).Trace.op in
              Hist.record_span wait wait_s;
              Hist.record_span (kv_wait (Kv.kind_of_op op)) wait_s;
              Kv.apply kv ~tid op;
              let done_at = Engine.now engine in
              Hist.record_span service (done_at -. now);
              Hist.record_span sojourn (done_at -. arrived);
              Metric.Counter.incr completed;
              Metric.Timeline.tick tl_goodput ~now:done_at;
              last_completion := done_at;
              serve ()
        in
        serve ())
  done;
  Engine.spawn engine (fun () ->
      Sync.Latch.wait latch;
      kv.Kv.quiesce ();
      Engine.stop engine);
  ignore (Engine.run engine);
  let n_completed = Metric.Counter.value completed in
  if n_completed + Metric.Counter.value shed <> ops then
    failwith "Frontend.run: requests lost (deadlock or missing poison)";
  let elapsed =
    if n_completed = 0 then 0.0 else !last_completion -. !first_arrival
  in
  {
    store = kv.Kv.name;
    policy = describe policy;
    offered_rate;
    offered = Metric.Counter.value offered;
    accepted = Metric.Counter.value accepted;
    shed = Metric.Counter.value shed;
    completed = n_completed;
    max_depth = !max_depth;
    elapsed;
    goodput = (if elapsed > 0.0 then float_of_int n_completed /. elapsed else 0.0);
    wait;
    service;
    sojourn;
  }
