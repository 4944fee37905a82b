open Prism_sim

type link_cfg = { latency : float; bandwidth : float; loss : float }

let default_link = { latency = 5e-6; bandwidth = 1.25e9; loss = 0.0 }

type link = {
  cfg : link_cfg;
  mutable next_free : float;  (* when the serial pipe frees up *)
  mutable last_delivery : float;
  rng : Rng.t;  (* private loss stream: drop decisions depend only on
                   the link's seed and the message's sequence number *)
}

type t = {
  engine : Engine.t;
  nodes : int;
  links : link array array;  (* links.(src).(dst) *)
  msgs : Metric.Counter.t;
  bytes : Metric.Counter.t;
  dropped : Metric.Counter.t;
  delivered : Metric.Counter.t;
}

let create engine ~nodes ?(link = default_link) ~seed () =
  if nodes <= 0 then invalid_arg "Net.create: nodes must be positive";
  let mk src dst =
    {
      cfg = link;
      next_free = 0.0;
      last_delivery = 0.0;
      rng =
        Rng.create
          (Int64.add seed (Int64.of_int ((src * nodes) + dst + 1)));
    }
  in
  {
    engine;
    nodes;
    links = Array.init nodes (fun src -> Array.init nodes (mk src));
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
  let l = t.links.(src).(dst) in
  Metric.Counter.incr t.msgs;
  Metric.Counter.add t.bytes size;
  let now = Engine.now t.engine in
  let start = Float.max now l.next_free in
  let tx =
    if l.cfg.bandwidth <= 0.0 then 0.0
    else float_of_int size /. l.cfg.bandwidth
  in
  l.next_free <- start +. tx;
  (* The pipe is occupied whether or not the message survives — loss
     happens in flight, after transmission. *)
  if l.cfg.loss > 0.0 && Rng.float l.rng < l.cfg.loss then
    Metric.Counter.incr t.dropped
  else begin
    let at = start +. tx +. l.cfg.latency in
    (* Strictly monotone per link: two deliveries can otherwise tie on
       the clock, and a seeded tie-break would reorder them. *)
    let at =
      if at <= l.last_delivery then l.last_delivery +. 1e-12 else at
    in
    l.last_delivery <- at;
    Engine.schedule t.engine ~after:(at -. now) (fun () ->
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
