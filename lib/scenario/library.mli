(** The named scenario suite the bench runner and CI execute.

    Each entry is a parametric builder: [build ~dur ~records] instantiates
    the scenario with unit phase length [dur] (virtual seconds — callers
    scale it so the scenario meets an op budget at the store's calibrated
    base rate) and the initial record count (which sizes drift speeds and
    growth expectations). Assertion windows are expressed in terms of
    [dur], so one spec stresses a fast and a slow store equally.

    Five generic shapes: a flash crowd, working-set drift, Facebook-style
    heavy-tail value sizes, key-space growth, and delete-heavy churn. Two
    placement shapes that only run on the hotness-placement Prism store:
    a hot-set inversion and a diurnal rotation, both asserting that tier
    migration counters move and that p99 recovers after the shift.

    {!run} executes one (scenario, store) pair end to end; the bench
    suite and [prism_ycsb --scenario] both go through it. *)

type built = {
  spec : Scenario.t;
  probes : string list;  (** registry metrics {!Scenario.run} samples *)
  checks : Assertion.t list;  (** evaluated against every store *)
  store_checks : (string * Assertion.t list) list;
      (** extra assertions keyed by [Kv.name] — e.g. Prism-only probe
          movement checks that would read 0 on a baseline *)
}

type entry = {
  ename : string;
  esummary : string;  (** one line for [--list] output *)
  estores : string list option;
      (** when set, the suite runner only pairs this scenario with these
          store arguments (e.g. the placement scenarios with
          ["prism-hotness"]); [None] means every configured store *)
  build : dur:float -> records:int -> built;
}

(** All entries, in a stable order. *)
val all : entry list

val find : string -> entry option

val names : string list

(** The generic checks plus the ones keyed to [store]. Only [test_scenario]
    "flash crowd heats the SVC" calls it directly. *)
val checks_for : built -> store:string -> Assertion.t list

(** One executed (scenario, store) pair. *)
type run = {
  capacity : float;  (** calibrated closed-loop ops per virtual second *)
  dur : float;  (** unit phase length after scaling, virtual seconds *)
  checks : Assertion.t list;  (** {!checks_for} the store *)
  outcome : Scenario.outcome;
  verdicts : Assertion.verdict list;  (** [eval_all checks outcome] *)
}

(** [run entry ~make engine kv s ~servers ~policy ~cal_ops ~seed_key]
    runs one scenario on one store: calibrate the capacity of a fresh
    store from [make] ({!Prism_harness.Runner.calibrate}, YCSB-B,
    [cal_ops] ops), scale the unit phase length so the scenario offers
    about [s.ops] arrivals at it, parse [policy] against it, synthesize
    the trace from [s.seed] plus the FNV-1a hash of
    ["scenario/<ename>/<seed_key>"], load [kv] (built on [engine] by
    [make]), replay with {!Scenario.run} and evaluate the checks.
    @raise Failure when [policy] does not parse. *)
val run :
  entry ->
  make:(Prism_sim.Engine.t -> Prism_harness.Kv.t) ->
  Prism_sim.Engine.t ->
  Prism_harness.Kv.t ->
  Prism_harness.Setup.scenario ->
  servers:int ->
  policy:string ->
  cal_ops:int ->
  seed_key:string ->
  run
