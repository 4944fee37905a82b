(** Discrete-event simulation kernel.

    A simulation is a set of cooperative processes that run on a virtual
    clock. Processes are ordinary OCaml functions; they advance virtual time
    with {!delay} and block on external events with {!suspend}. Both are
    implemented with effect handlers, so any function called (transitively)
    from a process body may delay or suspend without threading a monad
    through the code.

    Determinism: events scheduled for the same instant fire in scheduling
    order by default, and all randomness comes from explicit {!Rng.t}
    streams, so a simulation's outcome is a pure function of its inputs.
    The same-instant order is pluggable (see {!set_tie_break}): a seeded
    policy explores alternative interleavings while staying a pure
    function of its seed, which is what [prism_check] uses for schedule
    exploration. *)

type t

(** Policy for ordering events that fire at the same virtual instant.

    - [Fifo] (the default): scheduling order, the historical behaviour.
    - [Seeded seed]: a uniformly random member of each tie set, drawn
      from a SplitMix64 stream — every seed names one reproducible
      schedule.
    - [Replay choices]: re-apply decisions recorded by a previous run
      (see {!recorded_choices}); out-of-range or exhausted entries fall
      back to FIFO, so a replay against a diverged simulation degrades
      rather than crashes.
    - [Guided f]: call [f t n] at every decision point whose tie set has
      [n >= 2] members and follow its choice — the hook a systematic
      explorer (DPOR) uses to own the schedule. During the call, and only
      then, {!tie_seq} and {!tie_label} read member [k] of the tie set,
      in scheduling order; nothing is built to present it, so a callback
      that allocates nothing makes the decision allocation-free. [f] must
      return an index in [\[0, n)].

    Under every policy but [Fifo], each dispatch gathers the tie set in
    place: the events at the minimum time, in seq order (so index 0 is
    the FIFO pick). Only the chosen event leaves the queue; the others
    stay queued with their seq and label, so the next tie set at that
    instant is the same set minus the chosen event. *)
type tie_break =
  | Fifo
  | Seeded of int64
  | Replay of int array
  | Guided of (t -> int -> int)

(** [set_tie_break t p] installs the tie-break policy. Decisions made
    under a non-FIFO policy are recorded and can be fetched with
    {!recorded_choices}. Install it before events are queued: a pair
    fused under [Fifo] (see {!delay_behind}) stays one entry if the
    policy changes while it waits. *)
val set_tie_break : t -> tie_break -> unit

(** Tie-break decisions made so far (one entry per tie set of size >= 2),
    in the order they were taken — feed to [Replay] to reproduce the
    schedule without the seed. *)
val recorded_choices : t -> int array

(** [fold_choices t f init] folds [f] over the decisions
    {!recorded_choices} returns, in order, without copying them. *)
val fold_choices : t -> ('a -> int -> 'a) -> 'a -> 'a

(** [tie_seq t k] is the unique scheduling sequence number of member [k]
    of the tie set a [Guided] callback is deciding: a stable identity,
    since an event not chosen keeps its seq. Valid only during that
    call. *)
val tie_seq : t -> int -> int

(** [tie_label t k] is the scheduling label member [k] of the tie set
    inherited from the context that enqueued it (see {!annotate}; [0]
    means unlabelled). Valid only during a [Guided] callback. *)
val tie_label : t -> int -> int

(** [annotate t label] labels the currently executing context: events it
    enqueues from now on (delays, suspend resumes, spawns) carry [label],
    and a continuation chain keeps its label across resumptions. The
    checker stamps each KV operation's label around its execution so tie
    sets expose which operation each pending event belongs to. [0] means
    unlabelled. *)
val annotate : t -> int -> unit

(** The label of the currently executing context (0 when unlabelled). *)
val annotation : t -> int

(** [create ()] makes an empty simulation at time [0.0]. *)
val create : unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** Current virtual time in integer nanoseconds (rounded). The [int]
    return crosses module boundaries without boxing — unlike {!now}'s
    float in builds without cross-module inlining — so per-operation
    latency middleware can timestamp allocation-free. *)
val now_ns : t -> int

(** [spawn t f] registers a new process whose body [f] starts executing at
    the current virtual time (or at [at], if given). *)
val spawn : t -> ?at:float -> (unit -> unit) -> unit

(** [schedule t ~after f] runs plain callback [f] after [after] seconds of
    virtual time. Unlike {!spawn}, [f] must not delay or suspend. *)
val schedule : t -> after:float -> (unit -> unit) -> unit

(** [schedule_until t cells i f] is [schedule t ~after:(cells.(i) -. now
    t) f], with the time read from the caller's float cell so that it
    never crosses the call boundary boxed: [f] runs at exactly [now +.
    (cells.(i) -. now)]. *)
val schedule_until : t -> float array -> int -> (unit -> unit) -> unit

(** [run t] executes events until the queue is empty, [stop] is called, or
    virtual time would exceed [until]. Returns the final virtual time. *)
val run : ?until:float -> t -> float

(** [stop t] (called from within a process) makes [run] return once the
    current event completes. Remaining events are discarded. *)
val stop : t -> unit

(** [clear_pending t] drops every queued event — used to simulate a crash:
    in-flight IO completions and suspended continuations vanish. *)
val clear_pending : t -> unit

(** [delay d] advances the calling process's virtual time by [d] seconds.
    Must be called from within a process. [d] must be non-negative.

    When the process would resume before every other queued event (and
    within the active [run]'s [until], with no {!stop} pending), the
    clock advances in place: no continuation is captured and nothing is
    queued. The schedule is the same as the queued path's -- same
    order, same tie-break decisions, same [seq] numbers -- and the
    in-place resumption still counts as one event in
    {!events_executed}. *)
val delay : float -> unit

(** [delay_cell cells i] is [delay cells.(i)], with the delay read from
    the caller's float cell so that it never crosses the call boundary
    boxed. *)
val delay_cell : float array -> int -> unit

(** [delay_behind d f] is exactly [schedule (current ()) ~after:d f;
    delay d]: plain callback [f] runs at the wake-up instant, just before
    the calling process resumes. Device models use it to retire an
    access's in-flight count as the accessing process wakes.

    Under [Fifo] the two events would take adjacent [seq]s at one
    instant, so no other event can run between them, and the pair is
    fused: one queue entry that runs [f] and then resumes the process,
    or no entry at all when the wake-up may advance the clock in place
    (as in {!delay}). [seq] and {!events_executed} still move by two,
    so counts and later [seq]s match the queued pair. Under every other
    policy the callback is a member of the wake-up's tie set, which the
    policy may reorder, so both events are queued as written.

    [f] must not delay, suspend, {!stop} or {!clear_pending}: those
    could otherwise separate it from the wake-up. *)
val delay_behind : float -> (unit -> unit) -> unit

(** [delay_behind_until cells i f] is [delay_behind (cells.(i) -. now) f]
    for the engine currently executing: the wake-up time is read from a
    caller's float cell, so it never crosses the call boundary boxed.
    The wake-up lands at exactly [now +. (cells.(i) -. now)], as through
    {!delay_behind}. A device model parks each synchronous access here.
    @raise Invalid_argument if [cells.(i)] is before {!now}. *)
val delay_behind_until : float array -> int -> (unit -> unit) -> unit

(** [schedule_behind_until t cells i f g] is exactly [schedule_until t
    cells i f; schedule_until t cells i g], fused under [Fifo] into one
    queue entry that runs [f] and then [g], counted as two events — the
    same contract and the same restriction on [f] as {!delay_behind}. *)
val schedule_behind_until :
  t -> float array -> int -> (unit -> unit) -> (unit -> unit) -> unit

(** [yield ()] re-schedules the calling process at the current time, letting
    same-time events that were scheduled earlier run first. *)
val yield : unit -> unit

(** [suspend register] blocks the calling process. [register] is called
    immediately with a [resume] function; stash it somewhere, and call it
    (exactly once) to reschedule the process at the then-current virtual
    time. [resume] is built once per process and reused by each of its
    suspensions, so passing it allocates nothing; a second call raises
    [Invalid_argument] until the process suspends again. *)
val suspend : ((unit -> unit) -> unit) -> unit

(** [current_now ()] is the virtual time of the engine currently executing;
    callable only from within a process or scheduled callback. *)
val current_now : unit -> float

(** [current ()] is the engine currently executing, for code that needs to
    spawn or schedule without threading the handle explicitly. *)
val current : unit -> t

(** [clock t] is the engine's clock cells. Cell 0 always holds {!now}, so
    a hot path in another module can read the time there without the
    float being boxed across the call. Read-only: writing any cell breaks
    the simulation. *)
val clock : t -> float array

(** Number of events executed so far; useful for tests and progress. *)
val events_executed : t -> int

(** The engine's metric registry. Subsystems register counters, gauges
    and histograms here under dotted names; harness code reads them back
    uniformly. Registering and reading never schedules events. *)
val stats : t -> Stats.t

(** The engine's span tracer (disabled by default; see {!Span}). *)
val spans : t -> Span.t

(** [with_span t name f] runs [f] inside a virtual-time span named
    [name] (attributed to [tid], default 0; spans on one tid nest, so
    concurrent processes take distinct tids, e.g. from
    {!Span.fresh_tid}). When the tracer is disabled
    this is exactly [f ()]. Only reads the clock — a span can never
    schedule events or perturb tie sets. *)
val with_span : t -> ?tid:int -> string -> (unit -> 'a) -> 'a
