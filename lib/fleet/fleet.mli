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

    Determinism contract: {!map} and {!farm} return results indexed by
    request, so the merged output is a pure function of the job function
    alone — byte-identical whatever the worker count or completion
    order. If jobs fail, the failure of the {e smallest} failing index
    is raised. A worker's exception cannot cross the pipe as a value, so
    the coordinator raises one that prints as the worker printed it.

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
    at that point (a [map] cut short by a dead worker) is killed. *)
val with_workers :
  jobs:int -> ('req -> 'res) -> (('req, 'res) t -> 'a) -> 'a

(** [map t reqs] is [f] applied to every request, answers in request
    order, each idle worker taking the next unsent request. If any
    request fails, the exception of the smallest failing index is
    raised once every request has settled, printing as the worker's
    did; the workers then stay ready for the next [map]. *)
val map : ('req, 'res) t -> 'req array -> 'res array

(** [farm ~jobs n f] is [[| f 0; ...; f (n-1) |]]. With [jobs <= 1] or
    [n <= 1] the calls run inline in ascending order and nothing is
    forked; otherwise on [min jobs n] workers. If any [f i] raises, the
    exception of the smallest failing [i] is raised (on workers, after
    every job has settled). *)
val farm : jobs:int -> int -> (int -> 'a) -> 'a array
