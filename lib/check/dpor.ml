open Prism_sim
open Prism_fleet

module Iset = Set.Make (Int)
module Imap = Map.Make (Int)

(* One decision taken on the way to a node: the pick made at an
   ancestor, with just enough of that ancestor's tie set to detect
   divergence on replay. *)
type step = { n_alts : int; seq : int; pick : int }

(* One decision point of the choice tree. [alts] is the tie set the
   engine presented (scheduling order, so index 0 is the FIFO pick);
   event seq numbers are the stable identity of an alternative — the
   simulation is deterministic, so re-running the same choice prefix
   reproduces the same tie set with the same seqs.

   Exploration is tree-shaped rather than a DFS stack: every node with a
   branch candidate left stays on the frontier until all its candidates
   have started, and each run targets one (node, alternative) pair,
   replaying the node's path to get there. A path is its parent's path
   plus one step, sharing the tail, so it costs one step per node and
   keeps no ancestor node alive. *)
type node = {
  depth : int;  (* decision index of this node within its runs *)
  path : step list;  (* picks from the root, innermost first *)
  alts : Engine.alt array;
  sleep : Iset.t;  (* seqs asleep on entry to this node *)
  branch : Iset.t;  (* persistent set: seqs eligible for branching here *)
  mutable started : Iset.t;  (* seqs whose subtrees have begun exploring *)
}

type 'a class_result = {
  index : int;
  run : int;
  depth : int;
  choices : int array;
  result : 'a;
}

type 'a report = {
  classes : 'a class_result list;
  explored : int;
  runs : int;
  pruned : int;
  complete : bool;
}

exception Diverged

(* Dependency-closure persistent set: the connected component of the
   chosen alternative under [dependent], within the tie set. Members of
   other components commute with everything we will branch on here, and
   their own conflicts are branched at the later decision points where
   they meet — so branching only inside the component covers every
   inequivalent ordering this node can influence. With [full] the whole
   tie set is eligible (no reduction). *)
let closure ~full ~dependent (alts : Engine.alt array) taken_seq =
  if full then
    Array.fold_left (fun s (a : Engine.alt) -> Iset.add a.seq s) Iset.empty alts
  else begin
    (* Dependency edges require at least one endpoint to carry an
       operation label. [dependent] treats label 0 (simulator machinery
       owned by no KV operation) as conflicting with everything, so
       admitting 0–0 edges would connect every tie set completely and the
       tree would drown in reorderings of background events no history
       can distinguish. With the restriction, machinery-only tie sets
       stay in scheduling order, and branching happens exactly where an
       operation's event races something dependent on it. *)
    let edge (a : Engine.alt) (b : Engine.alt) =
      (a.label <> 0 || b.label <> 0) && dependent a.label b.label
    in
    let members = ref (Iset.singleton taken_seq) in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun (a : Engine.alt) ->
          if not (Iset.mem a.seq !members) then
            if
              Array.exists
                (fun (b : Engine.alt) -> Iset.mem b.seq !members && edge a b)
                alts
            then begin
              members := Iset.add a.seq !members;
              changed := true
            end)
        alts
    done;
    !members
  end

(* First alternative at [n] eligible to start a new subtree under the
   given [started] set: in the persistent set, not already started, not
   asleep. -1 when exhausted. Parameterising [started] lets the
   speculative scheduler evaluate candidates against a predicted future
   state without touching the node. *)
let candidate_with started n =
  let c = ref (-1) in
  Array.iteri
    (fun i (a : Engine.alt) ->
      if
        !c < 0
        && Iset.mem a.seq n.branch
        && (not (Iset.mem a.seq started))
        && not (Iset.mem a.seq n.sleep)
      then c := i)
    n.alts;
  !c

let candidate n = candidate_with n.started n

(* Run-local label table. Event seqs are dense per-run counters, so the
   labels live in an int array indexed by seq, grown by doubling, with
   [absent] marking seqs no tie set has shown. A hashtable here costs a
   bucket cell per tie-set member, which the major GC then promotes and
   scans for the rest of the run. A real label of [min_int] would read
   as absent, which only drops its event from a sleep set (less pruning,
   never a lost class). *)
let absent = min_int

let label_of labels s = if s < Array.length labels then labels.(s) else absent

let set_label labels (a : Engine.alt) =
  let labels =
    if a.seq < Array.length labels then labels
    else begin
      let bigger =
        Array.make (max 256 (2 * max a.seq (Array.length labels))) absent
      in
      Array.blit labels 0 bigger 0 (Array.length labels);
      bigger
    end
  in
  labels.(a.seq) <- a.label;
  labels

(* Every fresh node of a run lies on that run's route below its target,
   so each fresh path is a suffix of the deepest one's. Only that path's
   steps below the target travel back; the coordinator splices them onto
   its own copy of the target's path, so the tree shares path tails as a
   serial walk's does. *)
let pack ~depth (result, redundant, rdepth, choices, fresh) =
  let below =
    match List.rev fresh with
    | [] -> []
    | (deepest : node) :: _ ->
        List.filteri (fun k _ -> k < deepest.depth - depth) deepest.path
  in
  (result, redundant, rdepth, choices, List.map (fun f -> { f with path = [] }) fresh, below)

let unpack (target : node) (result, redundant, rdepth, choices, fresh, below) =
  let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
  let rec attach route depth = function
    | [] -> []
    | (f : node) :: rest ->
        let route = drop (depth - f.depth) route in
        { f with path = route } :: attach route f.depth rest
  in
  let route = below @ target.path in
  let deepest = target.depth + List.length below in
  (result, redundant, rdepth, choices, List.rev (attach route deepest (List.rev fresh)))

let explore ?(full = false) ?(stop_on = fun _ -> false)
    ?(on_commit = fun ~run:_ _ -> ()) ?(jobs = 1) ~max_classes ~dependent
    run_fn =
  (* The frontier: nodes with a branch candidate left, in non-empty
     per-depth buckets, each in commit order. The walk targets the head
     of the shallowest bucket — shallowest first, commit order breaking
     ties — so small budgets spread across the whole schedule instead of
     permuting its tail. *)
  let frontier : node Queue.t Imap.t ref = ref Imap.empty in
  let join (f : node) =
    match Imap.find_opt f.depth !frontier with
    | Some q -> Queue.push f q
    | None ->
        frontier := Imap.add f.depth (Queue.of_seq (Seq.return f)) !frontier
  in
  let next_target () =
    Imap.min_binding_opt !frontier
    |> Option.map (fun (_, q) ->
           let n = Queue.peek q in
           (n, candidate n))
  in
  let classes = ref [] in
  let n_classes = ref 0 in
  let runs = ref 0 in
  let pruned = ref 0 in
  let complete = ref false in
  (* One run against [target], touching no shared exploration state —
     so it can execute speculatively on a worker process and be
     committed (or discarded) later by the coordinator.

     The label table is run-local. That is equivalent to a persistent
     global one: every seq consulted by sleep-set filtering is a member
     of some ancestor's sleep/started set, and those sets are (by
     construction) subsets of the seqs of tie sets at shallower depths
     along the same path — tie sets this run replays itself, recording
     every member's label before the first consultation. A global table
     could only differ on seqs this run never consults.

     [snapshot] is the [started] set the run assumes at the target node;
     the run works on a local shadow of the node (grown by its own pick)
     instead of publishing the update, and the coordinator validates the
     snapshot is still current at commit time. Only fresh nodes with a
     branch candidate are returned, since the rest can never be
     targeted. *)
  let spec_run (target : (node * int) option) ~snapshot =
    (* Steps still to replay before the target, root first. *)
    let replay =
      ref (match target with Some (n, _) -> List.rev n.path | None -> [])
    in
    let labels = ref [||] in
    let fresh : node list ref = ref [] in
    (* Parent of the next fresh decision point, with the index taken
       there — seeds the child's sleep set. *)
    let last : (node * int) option ref = ref None in
    let depth = ref 0 in
    let redundant = ref false in
    let target_forced = ref false in
    let choices_rev = ref [] in
    let choose (alts : Engine.alt array) =
      Array.iter (fun (a : Engine.alt) -> labels := set_label !labels a) alts;
      let d = !depth in
      incr depth;
      let pick =
        match (!replay, target) with
        | s :: rest, _ ->
            replay := rest;
            if Array.length alts <> s.n_alts || alts.(s.pick).seq <> s.seq
            then raise Diverged;
            s.pick
        | [], Some (n, i) when d = n.depth ->
            if
              Array.length n.alts <> Array.length alts
              || n.alts.(i).seq <> alts.(i).seq
            then raise Diverged;
            target_forced := true;
            (* Run-local shadow: descendants must see [started] grown by
               this run's own pick, but the real node is only updated at
               commit. Children only read [last]'s fields, never mutate
               it, so the copy is safe to thread through their paths. *)
            last := Some ({ n with started = Iset.add n.alts.(i).seq snapshot }, i);
            i
        | _ ->
            if !redundant then 0
            else begin
              (* Sleep set: alternatives whose subtrees an earlier
                 sibling has already begun covering stay asleep until
                 something dependent executes (Godefroid). The invariant
                 is order-independent — a sibling falls asleep as soon as
                 its exploration {e starts}, whatever order subtrees are
                 scheduled in — so at exhaustion every completed run is
                 still a distinct class, and within a budget no class is
                 ever counted twice. *)
              let sleep =
                if full then Iset.empty
                else
                  match !last with
                  | None -> Iset.empty
                  | Some (p, ti) ->
                      let tl = p.alts.(ti).label in
                      let tseq = p.alts.(ti).seq in
                      Iset.union p.sleep (Iset.remove tseq p.started)
                      |> Iset.filter (fun s ->
                             let l = label_of !labels s in
                             l <> absent && not (dependent l tl))
              in
              let taken = ref (-1) in
              Array.iteri
                (fun i (a : Engine.alt) ->
                  if !taken < 0 && not (Iset.mem a.seq sleep) then taken := i)
                alts;
              if !taken < 0 then begin
                (* Every enabled alternative is asleep: any completion of
                   this prefix is Mazurkiewicz-equivalent to an
                   already-covered schedule. Finish the run FIFO but
                   report it pruned. *)
                redundant := true;
                0
              end
              else begin
                let path =
                  match !last with
                  | None -> []
                  | Some (p, ti) ->
                      let seq = p.alts.(ti).seq in
                      { n_alts = Array.length p.alts; seq; pick = ti } :: p.path
                in
                let node =
                  {
                    depth = d;
                    path;
                    alts;
                    sleep;
                    branch = closure ~full ~dependent alts alts.(!taken).seq;
                    started = Iset.singleton alts.(!taken).seq;
                  }
                in
                if candidate node >= 0 then fresh := node :: !fresh;
                last := Some (node, !taken);
                !taken
              end
            end
      in
      choices_rev := pick :: !choices_rev;
      pick
    in
    let result = run_fn ~choose in
    (match target with
    | Some _ when not !target_forced ->
        (* The run ended before reaching the targeted decision point —
           the simulation is not reproducing its prefix. *)
        raise Diverged
    | _ -> ());
    ( result,
      !redundant,
      !depth,
      Array.of_list (List.rev !choices_rev),
      List.rev !fresh (* creation order *) )
  in
  let stopped = ref false in
  (* Publish a finished run: update the target's persistent state
     (dropping it from the frontier once exhausted), adopt the fresh
     nodes, account the class. Commit order IS the serial exploration
     order, so everything downstream (frontier order, run numbers, class
     indices, [on_commit] calls) is byte-identical to the serial walk
     whatever executed the runs. *)
  let commit (result, redundant, rdepth, choices, fresh) target =
    (match target with
    | Some ((n : node), i) ->
        n.started <- Iset.add n.alts.(i).seq n.started;
        (* Every commit's target came from [next_target]: the head of
           the shallowest bucket. *)
        if candidate n < 0 then begin
          let q = Imap.find n.depth !frontier in
          let head = Queue.pop q in
          assert (head == n);
          if Queue.is_empty q then frontier := Imap.remove n.depth !frontier
        end
    | None -> ());
    List.iter join fresh;
    incr runs;
    if redundant then incr pruned
    else begin
      classes :=
        { index = !n_classes; run = !runs; depth = rdepth; choices; result }
        :: !classes;
      incr n_classes;
      if stop_on result then stopped := true
    end;
    on_commit ~run:!runs result;
    if !n_classes >= max_classes then stopped := true
  in
  (* One serial step: run the target inline, then commit it. *)
  let run_inline ((n, _) as t) =
    commit (spec_run (Some t) ~snapshot:n.started) (Some t)
  in
  (* Speculative frontier walk. The serial algorithm is a chain — each
     run's fresh nodes feed the next selection — so parallelism comes
     from *predicting* the next few selections and running them
     speculatively, while the coordinator commits strictly in the serial
     selection order. Before consuming each speculative result it
     recomputes the true next target from committed state; a prediction
     holds unless a committed run created a node that preempts the
     selection (or grew the target's [started] under it), in which case
     the walk falls back to one serial step and re-predicts the rest of
     the batch. Commits are the only mutation of shared state, so
     discarded speculations leave no trace and the report is
     byte-identical to the serial walk. *)
  let speculative workers =
    let window = 2 * jobs in
    (* Predict the next [window] (node, alt, started-snapshot) targets by
       replaying the selection rule against a shadow [started] set that
       grows with each predicted pick. Only the node under the cursor has
       a shadow: every node before it in frontier order is exhausted under
       its own shadow, and shadows only grow, so one ascending pass over
       the frontier is the selection sequence. Fresh speculative nodes
       are invisible to the pass (they only join at commit), so
       predictions beyond the next commit can be preempted. *)
    let predict () =
      let rec go nodes started k acc =
        if k = window then List.rev acc
        else
          match nodes () with
          | Seq.Nil -> List.rev acc
          | Seq.Cons (n, rest) ->
              let snap = Option.value started ~default:n.started in
              let i = candidate_with snap n in
              if i < 0 then go rest None k acc
              else
                go nodes
                  (Some (Iset.add n.alts.(i).seq snap))
                  (k + 1)
                  ((n, i, snap) :: acc)
      in
      Imap.to_seq !frontier
      |> Seq.flat_map (fun (_, q) -> Queue.to_seq q)
      |> fun nodes -> go nodes None 0 []
    in
    (* In-flight speculations, head = predicted next commit. After a
       mispredict the tail is re-predicted against the corrected frontier
       instead of being discarded: any in-flight request whose (node,
       alternative, snapshot) triple survives re-prediction is still a
       valid run of that target and is kept; only genuinely new targets
       are submitted. Stale requests are dropped — never committed, so
       they never existed as far as the report is concerned. A request
       is plain data: the worker gets its own copy of the node. *)
    let inflight = ref [] in
    let refill () =
      let old = !inflight in
      inflight :=
        List.map
          (fun (n, i, snap) ->
            match
              List.find_opt
                (fun (n', i', snap', _) ->
                  n' == n && i' = i && Iset.equal snap snap')
                old
            with
            | Some entry -> entry
            | None ->
                ( n,
                  i,
                  snap,
                  Fleet.submit workers (n, i, snap) ))
          (predict ());
      List.iter
        (fun (_, _, _, ticket) ->
          if not (List.exists (fun (_, _, _, t) -> t = ticket) !inflight) then
            Fleet.drop workers ticket)
        old
    in
    fun (n', i') ->
      (if !inflight = [] then refill ());
      match !inflight with
      | (n, i, snap, ticket) :: rest
        when n' == n && i' = i && Iset.equal snap n.started ->
          inflight := rest;
          commit (unpack n (Fleet.await workers ticket)) (Some (n, i))
      | _ ->
          (* Mispredicted (or prediction exhausted): one inline serial
             step against the true frontier, then rebuild the window,
             reusing whatever still matches. *)
          run_inline (n', i');
          refill ()
  in
  let walk step =
    while not !stopped do
      match next_target () with
      | None ->
          complete := true;
          stopped := true
      | Some t -> step t
    done
  in
  (* The root run builds the initial tree and must run alone. It also
     interns every workload key, so workers forked after it agree with
     the coordinator on every key id inside a label. *)
  commit (spec_run None ~snapshot:Iset.empty) None;
  if jobs > 1 && not !stopped then
    Fleet.with_workers ~jobs
      (fun ((n : node), i, snapshot) ->
        pack ~depth:n.depth (spec_run (Some (n, i)) ~snapshot))
      (fun workers -> walk (speculative workers))
  else walk run_inline;
  {
    classes = List.rev !classes;
    explored = !n_classes;
    runs = !runs;
    pruned = !pruned;
    complete = !complete;
  }
