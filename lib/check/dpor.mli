(** Dynamic partial-order reduction over the simulator's tie-break tree.

    The deterministic engine makes a schedule a pure function of its
    tie-break decisions, so the space of schedules is a finite tree: one
    node per tie set of size >= 2, one edge per member chosen. Blind seed
    sampling draws random paths of that tree and mostly resamples
    Mazurkiewicz-equivalent interleavings; this module walks the tree
    systematically instead, pruned so that {e every completed run is a
    distinct equivalence class}:

    - {b Sleep sets} (Godefroid): after a subtree rooted at alternative
      [a] is fully explored, [a] falls asleep in its siblings' subtrees
      and only wakes when a dependent transition executes. Choosing a
      sleeping alternative can only reproduce an explored class, so runs
      that reach an all-asleep tie set are abandoned as redundant — this
      is what makes completed runs pairwise inequivalent.
    - {b Persistent sets}: at each node, branching is restricted to the
      dependency-connected component of the default choice (under the
      caller's [dependent] relation over scheduling labels, typically
      {!History.conflicting}). Alternatives in other components commute
      with the whole component, and their own conflicts surface at later
      nodes. A dependency edge needs at least one labelled endpoint:
      unlabelled events ([label = 0] — engine machinery owned by no KV
      operation) are conservatively dependent with everything, so
      0–0 edges would connect every tie set completely and the tree
      would drown in reorderings of background events no history can
      distinguish. Machinery-only tie sets thus stay in scheduling
      order; branching happens exactly where an operation's event races
      something dependent on it.

    The reduction is exact when the dependency of two operations is
    visible at the tie sets where they are co-enabled (the lockstep
    micro-programs the tests enumerate); for the full store it is the
    usual local-independence approximation. [full = true] disables both
    prunings and branches on the entire tie set — the exhaustive
    brute-force reference.

    {b Exploration order.} The walk is tree-shaped: every decision point
    with an eligible alternative left sits on an ordered frontier
    (per-depth buckets in commit order) until all those alternatives have
    started a subtree, and each run targets one (node, alternative) pair.
    The walk always branches at the {e shallowest} frontier node (ties
    broken by creation order), so a
    small [max_classes] budget spreads coverage across the whole
    schedule — each early class reorders a different region instead of
    permuting the tail of the first schedule. Sleep sets are
    order-independent (an alternative falls asleep in its siblings as
    soon as its own subtree starts), so the order only changes
    {e which} classes a truncated budget sees, not the class set at
    exhaustion.

    {b Memory.} A decision allocates nothing unless it keeps a node: the
    sleep set, persistent set and previous pick live in scratch the walk
    reuses run after run, and each run writes its decisions (tie-set
    size, picked seq, picked index) as rows of one flat buffer. A run
    keeps the rows below its target, cut at its deepest kept node, as
    its log, chained to the target's log; a node's path is (log, depth),
    so a node never copies its ancestor path. A run copies its target's
    chain into the buffer once and checks every replayed tie set
    against it, raising {!Diverged} on a mismatch. A kept node holds
    only its depth, log, tie-set size, eligible members (index and seq),
    sleep set and a count of started members. Decision points with no
    alternative left never join the frontier and leave it once
    exhausted, so the collector reclaims them while their descendants'
    logs live on. State therefore grows linearly in the number of
    explored nodes, not in depth squared. A class's [choices] is the
    pick column of its run's buffer. *)

type 'a class_result = {
  index : int;  (** 0-based equivalence-class index, exploration order *)
  run : int;  (** 1-based simulation count when this class completed *)
  depth : int;  (** tie-break decision points in this run *)
  choices : int array;
      (** the full decision list — feed to {!Prism_sim.Engine.Replay} to
          reproduce this exact schedule *)
  result : 'a;
}

type 'a report = {
  classes : 'a class_result list;  (** in exploration order *)
  explored : int;  (** number of classes = completed runs *)
  runs : int;  (** total simulations, including pruned ones *)
  pruned : int;  (** runs abandoned as sleep-set redundant *)
  complete : bool;  (** the whole tree was exhausted within budget *)
}

exception Diverged
(** Raised when a re-run does not reproduce the recorded tie sets — the
    simulation under test is not deterministic, which breaks stateless
    exploration. *)

(** [explore ~max_classes ~dependent run] drives [run] repeatedly, each
    time passing a [choose] callback for the engine's [Guided] policy,
    which calls it at every tie decision; [choose] replays the targeted
    node's path and extends it by first-awake choices. Exploration stops
    when the tree is exhausted or [max_classes] classes completed.
    [dependent] is the conflict relation over event labels; [full =
    true] disables persistent-set pruning {e and} sleep sets — the
    exhaustive walk used as a brute-force reference.

    [on_commit ~run result] fires once per committed run (including
    pruned ones), in commit order, with the 1-based run number — use it
    for progress reporting that must stay deterministic under [jobs].

    {b Parallel exploration.} A run creates nodes only deeper than its
    target, so while the walk works through the shallowest frontier
    bucket nothing it commits joins that bucket or a shallower one: the
    bucket's remaining (node, member) pairs, nodes in queue order and
    each node's members from its started count on, are exactly the
    serial walk's next selections. The walk therefore takes them in
    batches — one pair at a time with [jobs = 1]; with [jobs > 1], up to
    [2 * jobs] pairs run on [jobs] worker processes forked after the
    root run, each sent as a plain (node with its path, member) request
    — and commits every answer in order until the budget stops it.
    Shared state is only ever mutated at commit, so the report — class
    set, indices, run numbers, choices, [complete] — and the [on_commit]
    sequence are byte-identical to the serial walk for any worker count.
    [run]'s result must then be marshalable (no closures), and [run]
    must give every label the same meaning in every process: the root
    run has to intern whatever its labels refer to. If a run raises on a
    worker, its batch raises before committing. *)
val explore :
  ?full:bool ->
  ?on_commit:(run:int -> 'a -> unit) ->
  ?jobs:int ->
  max_classes:int ->
  dependent:(int -> int -> bool) ->
  (choose:(Prism_sim.Engine.t -> int -> int) -> 'a) ->
  'a report
