(** Work-stealing runner for independent deterministic simulations.

    A pool farms pure jobs out to OCaml 5 worker domains. Jobs are
    coarse — whole simulation runs (a crash boundary, a sweep cell, a
    DPOR class execution), milliseconds to seconds each — so the
    scheduler optimises for simplicity and determinism rather than
    fine-grained throughput: per-worker deques with stealing, one pool
    lock, and results merged by job id.

    Determinism contract: {!map} returns results indexed by job id, so
    the merged output is a pure function of the job function alone —
    byte-identical whatever the worker count or completion interleaving.
    The scheduler decides only {e where} and {e when} a job runs, never
    what is returned where. Exceptions are part of the contract too: if
    any job raises, {!map} re-raises the failure of the {e smallest}
    failing job id (after every job has settled), so failure behaviour
    does not depend on scheduling either.

    Jobs must be domain-safe: each job builds its own engine/store from
    its spec and shares nothing mutable with other jobs. The simulation
    stack holds to that discipline ([Engine.current] is domain-local;
    the few process-global tables — history key interning, sstable ids —
    are internally synchronised).

    Workers flush their minor-allocation deltas to
    {!Prism_sim.Stats.note_foreign_gc} after every job, so process GC
    gauges sampled from the coordinator stay meaningful under OCaml 5's
    per-domain counters. *)

type pool

(** [create ~jobs] makes a pool of [jobs] lanes: the calling domain plus
    [jobs - 1] spawned worker domains. [jobs <= 1] spawns nothing and
    every operation degenerates to inline serial execution (the exact
    code path a serial caller would run). [jobs] is clamped to
    [max_jobs]. *)
val create : jobs:int -> pool

(** Lanes in the pool (1 means serial). *)
val jobs : pool -> int

(** Upper bound on [~jobs] (guards against pathological flag values). *)
val max_jobs : int

(** [Domain.recommended_domain_count ()] — the sensible [~jobs] value
    for "use the whole machine". *)
val default_jobs : unit -> int

(** [map pool n f] computes [| f 0; f 1; ...; f (n-1) |]. With a serial
    pool (or [n <= 1]) the calls happen inline in ascending order;
    otherwise jobs are distributed round-robin over worker deques,
    stolen by idle workers, and the calling domain both helps execute
    and collects. The result array is always indexed by job id. If any
    [f i] raises, the exception of the smallest failing [i] is re-raised
    (with its backtrace) after all jobs settle. *)
val map : pool -> int -> (int -> 'a) -> 'a array

(** A single in-flight job (see {!submit}/{!await}). *)
type 'a future

(** [submit pool f] enqueues [f] for execution by some worker lane and
    returns immediately. With a serial pool, [f] runs inline before
    [submit] returns. *)
val submit : pool -> (unit -> 'a) -> 'a future

(** [await pool fu] returns [fu]'s result, re-raising its exception
    (with backtrace) if it failed. If the job has not started yet, the
    calling domain claims and runs it inline rather than blocking — so
    a coordinator that awaits in a fixed order makes progress even when
    every worker is busy. *)
val await : pool -> 'a future -> 'a

(** [await_result pool fu] is {!await} without the re-raise. *)
val await_result :
  pool -> 'a future -> ('a, exn * Printexc.raw_backtrace) result

(** [peek fu] is [Some result] if the job has settled, [None] while it
    is pending or running. Never blocks and never claims the job. *)
val peek : 'a future -> ('a, exn * Printexc.raw_backtrace) result option

(** [shutdown pool] stops the workers and joins their domains.
    Outstanding futures are completed first ({!await} them beforehand if
    order matters to you). Idempotent. *)
val shutdown : pool -> unit

(** [with_pool ~jobs f] runs [f] over a fresh pool and always shuts it
    down, including on exception. *)
val with_pool : jobs:int -> (pool -> 'a) -> 'a

(** [farm ~jobs n f] is {!map} of [f] over [n] jobs on a pool of at most
    [jobs] lanes (never more lanes than jobs), created and shut down
    around the call. *)
val farm : jobs:int -> int -> (int -> 'a) -> 'a array
