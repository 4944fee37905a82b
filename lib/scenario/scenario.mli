(** Composable time-varying scenarios over {!Prism_workload} +
    {!Prism_frontend}.

    A scenario is a sequence of {e phases} in virtual time. Each phase
    sets the offered arrival rate (as a multiple of a per-store base
    rate), the operation mix (including deletes, which YCSB lacks), the
    key-popularity model, and the value-size distribution; a phase enters
    with either a step or a linear ramp from the previous phase's rate.
    That is enough to express the adversarial shapes a static steady
    state never shows: flash crowds (a cold key turns hot mid-run),
    working-set drift, Facebook-style heavy-tail value sizes, key-space
    growth, and delete-heavy churn.

    Everything is deterministic: {!synthesize} turns a scenario into a
    timed {!Prism_workload.Trace} as a pure function of [(spec,
    base_rate, records, seed)], and {!run} replays it through a bounded
    queue with admission control (the {!Prism_frontend} machinery),
    collecting windowed telemetry the {!Assertion} DSL evaluates. Same
    seed, same bytes. *)

(** Operation mix of one phase; weights need not be normalized (they are
    divided by their sum) but must be non-negative with a positive sum. *)
type mix = {
  reads : float;
  updates : float;
  inserts : float;  (** extend the key space *)
  scans : float;
  deletes : float;  (** remove live keys (churn) *)
  scan_len : int;  (** average scan length, as in {!Prism_workload.Ycsb} *)
}

val read_mostly : mix
(** 95/5 read/update, no churn — a YCSB-B-shaped default. *)

(** Key-popularity model of one phase. All ordinals are scrambled-Zipfian
    over the {e live} key space (which inserts grow), as in YCSB. *)
type popularity =
  | Zipf of { theta : float }  (** stationary scrambled Zipfian *)
  | Flash of { theta : float; hot_position : float; hot_weight : float }
      (** with probability [hot_weight], hit the single key at fraction
          [hot_position] of the initial key space — a previously cold key
          turned hot; otherwise draw Zipfian *)
  | Drift of { theta : float; keys_per_s : float }
      (** the popular set slides: drawn ordinals are shifted by
          [keys_per_s * t] (mod live keys), so the working set moves
          through the key space at a controlled speed *)

(** How a phase's rate takes over from the previous phase's. *)
type transition =
  | Step  (** instantaneous rate change at the phase boundary *)
  | Ramp of float  (** linear interpolation over the first [s] seconds *)

type phase = {
  pname : string;
  duration : float;  (** virtual seconds; > 0 *)
  rate : float;  (** arrival-rate multiplier of [base_rate]; >= 0 *)
  transition : transition;
  pmix : mix;
  popularity : popularity;
  sizes : Dist.size;
}

type t = {
  sname : string;
  phases : phase list;
  window : float;  (** telemetry sample window, virtual seconds; > 0 *)
}

(** Structural validation: positive durations and window, well-formed
    mixes, distributions and popularity parameters, distinct phase
    names. *)
val validate : t -> (unit, string) result

(** Total of the phase durations, virtual seconds. Only [test_scenario]'s
    durations property calls it directly. *)
val total_duration : t -> float

(** [[(start, end_)]] per phase, in order; ends are cumulative sums of
    the durations, so the last end equals {!total_duration}. Only
    [test_scenario]'s durations property calls it directly. *)
val phase_bounds : t -> (float * float) array

(** Expected arrival count at [base_rate], integrating each phase's rate
    profile (ramps included) — used to scale a scenario to an op
    budget. *)
val expected_arrivals : t -> base_rate:float -> float

(** [synthesize t ~base_rate ~records ~seed] generates the timed trace:
    nonhomogeneous-Poisson arrival stamps by Lewis–Shedler thinning of
    the piecewise rate profile, one operation drawn per arrival from the
    owning phase's mix/popularity/sizes. Inserts extend the live key
    space (and subsequent popularity draws cover it); deletes target
    popular keys. Pure function of the arguments.
    @raise Invalid_argument when [validate] rejects [t]. *)
val synthesize :
  t ->
  base_rate:float ->
  records:int ->
  seed:int64 ->
  Prism_workload.Trace.timed array

(** One telemetry window of an executed scenario. Quantiles are of the
    sojourn (queue wait + service) of requests {e completing} in the
    window; [offered]/[shed] count events stamped into the window. *)
type window_row = {
  w_start : float;
  w_offered : int;
  w_shed : int;  (** admission- plus dequeue-side *)
  w_completed : int;
  w_p50_us : float;  (** 0 when no completions *)
  w_p99_us : float;
  w_depth : int;  (** queue depth sampled at the window's end *)
}

(** Accounting for one phase, attributed by {e arrival} phase (a request
    arriving in phase P counts toward P even if it completes later), so
    [offered = accepted + shed_admission] and
    [accepted = completed + shed_dequeue] hold per phase. *)
type phase_stat = {
  ps_name : string;
  ps_start : float;
  ps_end : float;
  ps_offered : int;
  ps_accepted : int;
  ps_shed_admission : int;
  ps_shed_dequeue : int;
  ps_completed : int;
  ps_sojourn : Prism_sim.Hist.t;
}

type outcome = {
  spec : t;
  store : string;
  policy : string;  (** [Admission.describe] *)
  base_rate : float;
  interval : float;  (** the window length used *)
  windows : window_row array;
  probes : (string * float array) list;
      (** registry metrics sampled at each window's end, aligned with
          [windows]; metrics a store never registers read as 0 *)
  phases : phase_stat array;
  offered : int;
  accepted : int;
  shed_admission : int;
  shed_dequeue : int;
  completed : int;
}

(** Total shed, both flavours. *)
val shed : outcome -> int

(** [run engine kv t ~policy ~base_rate ~probes ~trace] replays a
    synthesized trace through {!Prism_frontend.Frontend.run} (generator +
    [servers] drainers around an {!Prism_frontend.Admission} queue) and
    observes it into the windowed telemetry above. A sampler process
    reads the queue depth and each [probes] metric from the engine
    registry at every window boundary. The driver publishes the
    [frontend.*] metric family and records every dispatched request's
    queue wait into the store's ["kv.<prefix>.<op>.wait"] histograms.
    Runs the engine to completion; raises [Failure] if any request is
    lost. An empty trace runs nothing and yields zero counts. *)
val run :
  ?servers:int ->
  Prism_sim.Engine.t ->
  Prism_harness.Kv.t ->
  t ->
  policy:Prism_frontend.Admission.spec ->
  base_rate:float ->
  probes:string list ->
  trace:Prism_workload.Trace.timed array ->
  outcome
