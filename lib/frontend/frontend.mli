(** Open-loop front-end: a request queue with tail-drop admission between
    a stream of timed arrivals and any {!Prism_harness.Kv.t}. Callers stamp
    the stream with Poisson gaps, [Rng.exponential rng ~mean:(1 / rate)].

    Closed-loop drivers ({!Prism_harness.Runner}) can never push a store
    past saturation — each simulated client waits for its own op. Here
    requests instead arrive on their own schedule (each arrival is one
    logical connection's request, so a rate of hundreds of thousands per
    second stands in for tens of thousands of concurrent clients), join a
    FIFO queue guarded by an admission {!policy}, and are drained by a
    fixed pool of server processes. Past the saturation knee the queue —
    not the store — owns the tail, which is exactly the regime knee
    curves measure.

    Telemetry (all in the engine's {!Prism_sim.Stats} registry):

    - counters [frontend.offered], [frontend.accepted],
      [frontend.shed.admission], [frontend.completed]
    - histograms [frontend.wait], [frontend.service], [frontend.sojourn]
      (nanoseconds) and [frontend.queue.depth] (depth observed by each
      arrival)
    - timelines [frontend.goodput] (one tick per completion) and
      [frontend.shed] (one tick per shed)
    - gauge [frontend.queue.depth.live]

    Queue waits are additionally recorded into the store's
    ["kv.<prefix>.<op>.wait"] histograms ({!Prism_harness.Kv.wait_histogram}),
    so a knee curve can attribute tail growth to queueing vs the store. *)

(** Admission at arrival:

    - [Unbounded]: the FIFO baseline — never sheds; past saturation the
      queue and every latency percentile diverge.
    - [Bounded b]: classic tail drop — an arrival finding [b] requests
      queued is shed. *)
type policy = Unbounded | Bounded of int

(** Stable display name: ["unbounded"] or ["bounded"]. *)
val name : policy -> string

(** Parameters rendered for reports, e.g. ["bounded(512)"]. *)
val describe : policy -> string

(** [of_string ~servers s] parses a CLI policy name: ["unbounded"],
    ["bounded"] (bound = 25 x [servers], at least 16 — about 25 service
    slots of queueing delay) or ["bounded=N"]. *)
val of_string : servers:int -> string -> (policy, string) result

(** [admits policy ~depth] is whether an arrival finding [depth] requests
    queued joins the queue. *)
val admits : policy -> depth:int -> bool

type result = {
  store : string;
  policy : string;  (** {!describe} of the policy *)
  offered_rate : float;  (** requests per virtual second, long-run mean *)
  offered : int;  (** arrivals generated *)
  accepted : int;  (** admitted to the queue *)
  shed : int;  (** shed on arrival *)
  completed : int;
  max_depth : int;  (** deepest queue any arrival observed *)
  elapsed : float;  (** first arrival to last completion, virtual s *)
  goodput : float;  (** completed / elapsed, ops per virtual second *)
  wait : Prism_sim.Hist.t;  (** queue wait of served requests, ns *)
  service : Prism_sim.Hist.t;  (** store service time, ns *)
  sojourn : Prism_sim.Hist.t;  (** end-to-end wait + service, ns *)
}

(** [shed / offered]; 0 when nothing was offered. *)
val shed_rate : result -> float

val pp_result : Format.formatter -> result -> unit

(** [run ~servers engine kv ~policy ~offered_rate ~trace] replays an
    arrival-time stamped trace (see {!Prism_workload.Trace.record_timed})
    open-loop against [kv]: a generator process releases each request at
    its stamp and sheds it unless {!admits}; [servers] worker processes
    drain the queue. Runs the engine to
    completion of all accepted requests. [offered_rate] is recorded in
    the result for labelling (the Poisson rate the stamps were drawn at).

    Determinism: everything downstream of the trace is a pure function of
    the engine schedule, so the same seed reproduces the identical
    result. *)
val run :
  servers:int ->
  Prism_sim.Engine.t ->
  Prism_harness.Kv.t ->
  policy:policy ->
  offered_rate:float ->
  trace:Prism_workload.Trace.timed array ->
  result
