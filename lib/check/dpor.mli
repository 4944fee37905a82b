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

    {b Memory.} A node does not copy its ancestor path. Its path is an
    immutable list of parent steps — the tie-set size, picked index and
    picked seq of each ancestor decision — whose tail it shares with its
    parent and siblings; a run unrolls its target's path once and checks
    every replayed tie set against it, raising {!Diverged} on a
    mismatch. Decision points with no alternative left never join the
    frontier and leave it once exhausted, so the collector reclaims them
    while their descendants' steps live on. State therefore grows
    linearly in the number of explored nodes, not in depth squared. *)

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
    time passing a [choose] callback the engine's [Guided] policy calls
    at every tie decision; [choose] replays the targeted node's path and
    extends it by first-awake choices. Exploration stops when the tree is
    exhausted, [max_classes] classes completed, or [stop_on result] is
    true for a completed class. [dependent] is the conflict relation over
    event labels; [full = true] disables persistent-set pruning {e and}
    sleep sets — the exhaustive walk used as a brute-force reference.

    [on_commit ~run result] fires once per committed run (including
    pruned ones), in commit order, with the 1-based run number — use it
    for progress reporting that must stay deterministic under [pool].

    {b Parallel exploration.} With [pool] (of more than one lane), runs
    execute speculatively on worker domains: the coordinator predicts
    the next few serial selections (one ordered pass over the frontier),
    farms them out, and commits results
    strictly in the serial selection order after re-validating each
    prediction against committed state (falling back to one serial step
    when a committed run's fresh nodes preempt the predicted target).
    Shared state is only ever mutated at commit, so the report — class
    set, indices, run numbers, choices, [complete] — is byte-identical
    to the serial walk for any worker count. [run] must then be
    domain-safe: each call builds its own engine/stores and shares
    nothing mutable. *)
val explore :
  ?full:bool ->
  ?stop_on:('a -> bool) ->
  ?on_commit:(run:int -> 'a -> unit) ->
  ?pool:Prism_fleet.Fleet.pool ->
  max_classes:int ->
  dependent:(int -> int -> bool) ->
  (choose:(Prism_sim.Engine.alt array -> int) -> 'a) ->
  'a report
