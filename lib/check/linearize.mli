(** Linearizability checking for put/get/delete/scan/batch histories
    against a sequential map, in the style of Wing & Gong's algorithm.

    One search serves every check. Its state is a vector of registers,
    one per key in play; at every step any operation whose invocation
    precedes all unlinearized responses may linearize next, provided its
    recorded outcome is legal in the current state. Failed
    (linearized-set, state) configurations are memoized, which keeps the
    search polynomial for the low-concurrency histories the simulator
    produces. Register state is symbolic — a value is named by the
    operation that wrote it — so memo keys stay tiny.

    Linearizability is local, so the history is first split into per-key
    register subhistories, each searched on its own. Committed and
    pending batches enter them as independent per-key writes.

    {b Scans} and {b committed batches} span keys. Each scan must be an
    atomic snapshot read: some single point in a legal linearization at
    which the scan's result is exactly the live contents of its key
    range. Each committed batch must write all its keys at one point. The
    search for these runs over each scan's or batch's {e footprint} —
    the scan plus the puts/deletes on its returned-or-in-range keys, the
    batch's write set — so keys no scan covers keep the per-key
    decomposition and the state space stays tractable. Scans and batches
    with overlapping footprints are solved together as one component.
    Gets are deliberately left in the per-key search (a documented
    approximation: their constraints do not propagate into scan points).
    Cheap per-item scan conditions — sorted, bounded by the requested
    count, values that were written — run first as a pre-filter.

    A scan invoked after every other operation responded (the read after
    a crash recovery) sees the final state, so it splits by key without
    loss: each component gets the scan's share of its keys, and each
    other key it covers is searched alone with its writes.

    {b Pending operations} ({!History.Pending}, cut off by a crash) follow
    durable linearizability: a pending put, delete or batch takes either
    its effect (a batch all its writes at one point) or no step at all.
    Its response is the cut, so it is decided before any operation
    recorded after recovery. A pending get or scan returned nothing and
    is dropped.

    A scan's covered range is [[from, last-returned-key]] when it filled
    its requested count (anything above the last key was legitimately cut
    off) and [[from, ∞)] when it returned fewer items than asked; a
    count-0 scan covers nothing. *)

type violation = {
  key : string;  (** offending key; [""] for multi-key scan violations *)
  reason : string;
  ops : History.event list;  (** the subhistory to include in a report *)
}

(** [check ?init ?init_keys events] verifies the history. [init] gives
    the value each key held before recording started (preload); defaults
    to every key absent. [init_keys] enumerates the preload domain —
    needed to flag preloaded, never-written keys a covering scan omitted
    (a function's domain is not enumerable); defaults to []. *)
val check :
  ?init:(string -> bytes option) ->
  ?init_keys:string list ->
  History.event array ->
  (unit, violation) result

val pp_violation : Format.formatter -> violation -> unit
