open Prism_sim

type link_cfg = { latency : float; bandwidth : float; loss : float }

let default_link = { latency = 5e-6; bandwidth = 1.25e9; loss = 0.0 }

type t = {
  engine : Engine.t;
  clock : float array;  (* the engine's clock cells; [clock.(0)] is now *)
  nodes : int;
  link : link_cfg;
  times : float array;
      (* two cells per directed link [l = src * nodes + dst]: [2l] is
         when its serial pipe frees up, [2l + 1] its last delivery time.
         Float cells, so updating them boxes nothing, and delivery is
         scheduled straight from cell [2l + 1]. *)
  rngs : Rng.t array;
      (* per-link private loss streams: drop decisions depend only on
         the link's seed and the message's sequence number *)
  msgs : Metric.Counter.t;
  bytes : Metric.Counter.t;
  dropped : Metric.Counter.t;
  delivered : Metric.Counter.t;
}

let create engine ~nodes ?(link = default_link) ~seed () =
  if nodes <= 0 then invalid_arg "Net.create: nodes must be positive";
  {
    engine;
    clock = Engine.clock engine;
    nodes;
    link;
    times = Array.make (2 * nodes * nodes) 0.0;
    rngs =
      Array.init (nodes * nodes) (fun l ->
          Rng.create (Int64.add seed (Int64.of_int (l + 1))));
    msgs = Metric.Counter.create ();
    bytes = Metric.Counter.create ();
    dropped = Metric.Counter.create ();
    delivered = Metric.Counter.create ();
  }

let check_endpoint t n =
  if n < 0 || n >= t.nodes then invalid_arg "Net: endpoint out of range"

let send t ~src ~dst ~size f =
  check_endpoint t src;
  check_endpoint t dst;
  if size < 0 then invalid_arg "Net.send: negative size";
  let l = (src * t.nodes) + dst in
  let free = 2 * l and last = (2 * l) + 1 in
  Metric.Counter.incr t.msgs;
  Metric.Counter.add t.bytes size;
  let now = Array.unsafe_get t.clock 0 in
  let next_free = t.times.(free) in
  let start = if now >= next_free then now else next_free in
  let tx =
    if t.link.bandwidth <= 0.0 then 0.0
    else float_of_int size /. t.link.bandwidth
  in
  t.times.(free) <- start +. tx;
  (* The pipe is occupied whether or not the message survives — loss
     happens in flight, after transmission. *)
  if t.link.loss > 0.0 && Rng.float t.rngs.(l) < t.link.loss then
    Metric.Counter.incr t.dropped
  else begin
    let at = start +. tx +. t.link.latency in
    (* Strictly monotone per link: two deliveries can otherwise tie on
       the clock, and a seeded tie-break would reorder them. *)
    let prev = t.times.(last) in
    t.times.(last) <- (if at <= prev then prev +. 1e-12 else at);
    Engine.schedule_until t.engine t.times last (fun () ->
        Metric.Counter.incr t.delivered;
        f ())
  end

let msgs t = Metric.Counter.value t.msgs

let bytes t = Metric.Counter.value t.bytes

let dropped t = Metric.Counter.value t.dropped

let register_stats t stats ~prefix =
  let p name = prefix ^ "." ^ name in
  Stats.register_counter stats (p "msgs") t.msgs;
  Stats.register_counter stats (p "bytes") t.bytes;
  Stats.register_counter stats (p "dropped") t.dropped;
  Stats.register_counter stats (p "delivered") t.delivered;
  Stats.gauge_int stats (p "nodes") (fun () -> t.nodes)
