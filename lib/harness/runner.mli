(** Experiment driver: runs a YCSB phase against a store inside a
    simulation and collects throughput and latency in virtual time. *)

type result = {
  store : string;
  workload : string;
  ops : int;
  elapsed : float;  (** virtual seconds for the phase *)
  kops : float;  (** throughput, thousand ops per virtual second *)
  latency : Prism_sim.Hist.t;  (** per-operation latency, nanoseconds *)
}

val pp_result : Format.formatter -> result -> unit

(** [parallel_phase engine ~threads body] runs [body tid] for every
    [tid < threads] on its own client process, runs the engine until all
    of them return, stops it, and returns the virtual makespan.
    @raise Failure if the clients never all finish. *)
val parallel_phase :
  Prism_sim.Engine.t -> threads:int -> (int -> unit) -> float

(** Every phase reads its shape from a {!Setup.scenario}: [threads]
    client processes, [records] keys of [value_size] bytes, Zipfian
    [theta], and [seed]. *)

(** [load engine kv s] runs the LOAD phase: inserts all [s.records] keys
    in an order drawn from [s.seed], spread over [s.threads] client
    processes, then quiesces. *)
val load : Prism_sim.Engine.t -> Kv.t -> Setup.scenario -> result

(** [run engine kv mix s] runs [ops] operations of [mix] and returns the
    measured result. [ops] defaults to [s.scan_ops] for YCSB-E and to
    [s.ops] otherwise. The key stream is drawn from [s.seed] plus the
    FNV-1a hash of the mix name, so consecutive phases differ.
    [timeline], when given, gets one tick per completed operation (for
    Figure 17). *)
val run :
  ?timeline:Prism_sim.Metric.Timeline.t ->
  ?ops:int ->
  Prism_sim.Engine.t ->
  Kv.t ->
  Prism_workload.Ycsb.mix ->
  Setup.scenario ->
  result

(** {1 Cells}

    A cell is one whole simulation declared as data: a fresh engine, the
    store [make] builds on it, {!load}, then [phases] in order. Cells
    share nothing, so a set of them can be farmed to worker processes;
    a farmed cell's readings must then be plain data (no closures). *)

(** What a [Read] sees: the engine, the instrumented store and, when
    [make] returned it, the Prism store behind it. *)
type probe = {
  engine : Prism_sim.Engine.t;
  kv : Kv.t;
  prism : Prism_core.Store.t option;
}

type 'a phase =
  | Run of Prism_workload.Ycsb.mix  (** {!run}; adds a result *)
  | Run_timeline of string * Prism_workload.Ycsb.mix
      (** [Run], ticking the registry's 1 ms timeline [name] per op *)
  | Quiesce  (** the store's quiesce hook, on a simulation process *)
  | Read of (probe -> 'a)  (** observe or act; adds a reading *)

type 'a cell = {
  label : string;  (** names the cell in failures *)
  scenario : Setup.scenario;
  make :
    Prism_sim.Engine.t -> Setup.scenario -> Kv.t * Prism_core.Store.t option;
  phases : 'a phase list;
}

(** [results] and [reads] come in phase order. *)
type 'a outcome = { load : result; results : result list; reads : 'a list }

(** [run_cell c] runs [c] on an instrumented store ({!Kv.instrument}). A
    [Failure] is re-raised prefixed with [c.label]. *)
val run_cell : 'a cell -> 'a outcome

(** [calibrate make mix s] measures a store's closed-loop capacity: the
    one-phase cell [[Run mix]] over the store [make] builds, with [ops]
    (when given) replacing both [s.ops] and [s.scan_ops]. Open-loop
    drivers scale offered load to the result's [kops]. Deterministic,
    so whatever is derived from it stays a pure function of the seed. *)
val calibrate :
  ?ops:int ->
  (Prism_sim.Engine.t -> Kv.t) ->
  Prism_workload.Ycsb.mix ->
  Setup.scenario ->
  result

(** Measure the virtual time a store takes to recover after a simulated
    restart ([None] when the store has no recovery hook). *)
val recovery_time : Prism_sim.Engine.t -> Kv.t -> float option
