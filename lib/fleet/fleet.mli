(** Independent deterministic simulations farmed out to forked worker
    processes.

    Jobs are coarse — whole simulation runs (a crash point, a sweep
    cell, a DPOR class execution), milliseconds to seconds each — and
    share nothing, so each runs in a worker process of its own heap and
    its own GC. The coordinator forks the workers once, after it has
    built whatever state the job function reads; a worker then applies
    that function to each request value the coordinator sends it over a
    pipe and answers with the result, [Marshal]led without the
    [Closures] flag: a result that holds a closure fails its job.
    Dispatch is dynamic: an idle worker gets the next queued request.

    Determinism contract: {!farm} returns results indexed by job id, so
    the merged output is a pure function of the job function alone —
    byte-identical whatever the worker count or completion order. If
    jobs fail, the failure of the {e smallest} failing id is raised. A
    worker's exception cannot cross the pipe as a value, so the
    coordinator raises one that prints as the worker printed it.

    Each answer carries the worker's minor words and minor and major
    collections for that job, which go into
    {!Prism_sim.Stats.note_foreign_gc}, so the coordinator's process GC
    gauges count the whole fleet.

    Workers exit through [Unix._exit], so they never flush output
    buffers inherited from the coordinator, and every worker is reaped
    before {!with_workers} or {!farm} returns, normally or not. A worker
    that dies (a signal, an abort) fails the call with a message naming
    the job it was running. *)

(** Workers applying a fixed ['req -> 'res]. *)
type ('req, 'res) t

(** [Domain.recommended_domain_count ()]: the host's CPU count, the
    sensible [~jobs] for "use the whole machine". *)
val default_jobs : unit -> int

(** [with_workers ~jobs f body] forks [jobs] workers (clamped to
    [1..64]) that each apply [f], runs [body] on them, then stops and
    reaps them, also when [body] raises. A worker still running a job
    at that point (a dropped speculation) is killed. *)
val with_workers :
  jobs:int -> ('req -> 'res) -> (('req, 'res) t -> 'a) -> 'a

(** [submit t req] queues [f req] and returns its ticket. Tickets count
    up from 0 in submission order. *)
val submit : ('req, 'res) t -> 'req -> int

(** [await t ticket] waits for the answer to [ticket], collecting any
    other answer that arrives first and keeping every worker busy while
    work is queued. If the job failed, raises an exception printing as
    the worker's did.
    Each ticket is awaited at most once. *)
val await : ('req, 'res) t -> int -> 'res

(** [drop t ticket] gives up on [ticket]: a queued request is never
    sent, and an answer already on its way is read and discarded. *)
val drop : ('req, 'res) t -> int -> unit

(** [farm ~jobs n f] is [[| f 0; ...; f (n-1) |]]. With [jobs <= 1] or
    [n <= 1] the calls run inline in ascending order and nothing is
    forked; otherwise on [min jobs n] workers. If any [f i] raises, the
    exception of the smallest failing [i] is raised (on workers, after
    every job has settled). *)
val farm : jobs:int -> int -> (int -> 'a) -> 'a array
