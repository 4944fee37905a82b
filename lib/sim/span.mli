(** Virtual-time spans with per-name self-time attribution.

    A span is name x tid x [start, end)] in virtual time. The tracer
    only reads clock values passed in by the caller — it never schedules
    events — so it is inert with respect to the simulation schedule
    (see {!Engine.with_span} for the engine-integrated entry point).

    Spans nest per tid: each simulated client thread is sequential, so a
    per-tid frame stack attributes self time (duration minus enclosed
    child spans) even though processes interleave on the engine.

    Disabled by default; when disabled, {!begin_}/{!end_} are no-ops. *)

type t

type handle

val create : unit -> t

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** When set, every completed span is kept individually for
    {!to_chrome_json} (memory grows with span count); otherwise only
    per-name aggregates are maintained. *)
val set_keep_events : t -> bool -> unit

(** [fresh_tid t] is a tid no earlier call on [t] returned, counting up
    from 1 (tid 0 is {!Engine.with_span}'s default). Background
    processes take one each at creation, so their spans nest only
    within their own process even when passes overlap. Callers that
    number their own tids (the benchmark's clients start at 1000) pick
    them above the few this hands out. *)
val fresh_tid : t -> int

(** [begin_ t ~name ~tid ~now] opens a span. Must be paired with
    {!end_} on the same [tid]. *)
val begin_ : t -> name:string -> tid:int -> now:float -> handle

(** [end_ t h ~now] closes the span. Frames opened above [h] on the same
    tid that were never ended (e.g. an exception unwound past them) are
    closed at the same instant. Ending twice is a no-op. *)
val end_ : t -> handle -> now:float -> unit

(** [(name, count, total, self)] per span name, sorted by name. [total]
    sums span durations; [self] excludes time inside enclosed spans. *)
val totals : t -> (string * int * float * float) list

val reset : t -> unit

(** Chrome [trace_event] JSON (["X"] complete events, microseconds);
    non-empty only when [set_keep_events] was on. Load into
    [chrome://tracing] or Perfetto. *)
val to_chrome_json : t -> string
