open Prism_sim
open Prism_fleet

module Imap = Map.Make (Int)

(* The decisions of one run, as rows of three ints — tie-set size, seq of
   the member picked, its index — for the depths at and below [base]:
   row [k] is depth [base + k]. Rows above [base] live in [up], the log
   of the run whose node this run targeted at depth [base], so a run
   adds rows only below its target, and paths share their prefixes as
   the tree does. [rows] is filled in when the run ends, cut just below
   its deepest kept node. *)
type log = { up : log; base : int; mutable rows : int array }

let rec no_log = { up = no_log; base = 0; rows = [||] }

(* [load log depth dst] copies rows [0, depth) of [log]'s chain to
   [dst], three ints per depth. *)
let rec load log depth dst =
  if depth > 0 then begin
    Array.blit log.rows 0 dst (3 * log.base) (3 * (depth - log.base));
    load log.up log.base dst
  end

(* One decision point of the choice tree that still has a subtree to
   start. Event seq numbers are the stable identity of an alternative:
   the simulation is deterministic, so re-running the node's path
   reproduces its tie set with the same seqs, and a node keeps only what
   a run needs to check that and branch there.

   Its eligible alternatives are the tie-set members in the persistent
   set and not asleep, in scheduling order. The first is the first-awake
   member the creating run took, and subtrees start in that order (a
   target is always the first eligible member not yet started), so the
   started set is the prefix [0, next) of [elig] and one int tracks it.

   Exploration is tree-shaped rather than a DFS stack: every node with a
   branch candidate left stays on the frontier until all its candidates
   have started, and each run targets one (node, alternative) pair,
   replaying the node's path to get there. *)
type node = {
  depth : int;  (* decision index of this node within its runs *)
  log : log;  (* its path: rows [0, depth) of this log's chain *)
  n_alts : int;  (* tie-set size *)
  elig : int array;  (* eligible members: index and seq pairs *)
  sleep : int array;  (* seqs asleep on entry to this node *)
  mutable next : int;  (* eligible members whose subtrees have begun *)
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

(* Per-walk scratch, reused by every run a process executes (runs are
   sequential within a process), so that a decision writes into it and
   allocates nothing unless it keeps a node. *)
type scratch = {
  mutable rows : int array;
      (* the current run's decisions from the root, in {!log} rows: the
         target's path is loaded below the target's depth, and every
         decision writes its own row *)
  mutable labels : int array;
      (* run-local label of each seq the run's tie sets have shown,
         [absent] for the others; cleared between runs *)
  mutable sleep : int array;
      (* [sleep.(0 .. n_sleep - 1)]: the seqs asleep on entry to the
         next decision, before the last pick wakes any *)
  mutable n_sleep : int;
  mutable comp : Bytes.t;
      (* persistent-set marks, one byte per tie-set member *)
}

(* Seq labels live in an int array indexed by seq (seqs are dense
   per-run counters), with [absent] marking seqs no tie set has shown. A
   real label of [min_int] would read as absent, which only drops its
   event from a sleep set (less pruning, never a lost class). *)
let absent = min_int

let no_sleep : int array = [||]

let new_scratch () =
  {
    rows = Array.make 768 0;
    labels = Array.make 256 absent;
    sleep = Array.make 16 0;
    n_sleep = 0;
    comp = Bytes.create 16;
  }

let grow a n fill =
  let bigger = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let set_label st s l =
  if s >= Array.length st.labels then
    st.labels <- grow st.labels (s + 1) absent;
  st.labels.(s) <- l

(* Room for the rows of depths [0, depth). *)
let reserve_rows st depth =
  if 3 * depth > Array.length st.rows then
    st.rows <- grow st.rows (3 * depth) 0

let label_of st s = if s < Array.length st.labels then st.labels.(s) else absent

let rec asleep_from st s k =
  k < st.n_sleep && (st.sleep.(k) = s || asleep_from st s (k + 1))

let asleep st s = asleep_from st s 0

let set_sleep st a =
  let n = Array.length a in
  if n > Array.length st.sleep then st.sleep <- grow st.sleep n 0;
  Array.blit a 0 st.sleep 0 n;
  st.n_sleep <- n

let add_sleep st s =
  if not (asleep st s) then begin
    if st.n_sleep = Array.length st.sleep then
      st.sleep <- grow st.sleep (st.n_sleep + 1) 0;
    st.sleep.(st.n_sleep) <- s;
    st.n_sleep <- st.n_sleep + 1
  end

let in_comp st k = Bytes.get st.comp k = '\001'

(* A marked member from [b] on has an edge to a member labelled [la]. *)
let rec linked st ~dependent e n la b =
  b < n
  && (in_comp st b
      && (let lb = Engine.tie_label e b in
          (la <> 0 || lb <> 0) && dependent la lb)
     || linked st ~dependent e n la (b + 1))

(* Dependency-closure persistent set, marked in [st.comp]: the connected
   component of the taken member under [dependent], within the tie set.
   Members of other components commute with everything we will branch on
   here, and their own conflicts are branched at the later decision
   points where they meet — so branching only inside the component
   covers every inequivalent ordering this node can influence.

   Dependency edges require at least one endpoint to carry an operation
   label. [dependent] treats label 0 (simulator machinery owned by no KV
   operation) as conflicting with everything, so admitting 0–0 edges
   would connect every tie set completely and the tree would drown in
   reorderings of background events no history can distinguish. With the
   restriction, machinery-only tie sets stay in scheduling order, and
   branching happens exactly where an operation's event races something
   dependent on it. *)
let mark_closure st ~dependent e n taken =
  if n > Bytes.length st.comp then
    st.comp <- Bytes.create (max n (2 * Bytes.length st.comp));
  Bytes.fill st.comp 0 n '\000';
  Bytes.set st.comp taken '\001';
  let changed = ref true in
  while !changed do
    changed := false;
    for a = 0 to n - 1 do
      if
        (not (in_comp st a))
        && linked st ~dependent e n (Engine.tie_label e a) 0
      then begin
        Bytes.set st.comp a '\001';
        changed := true
      end
    done
  done

(* Member [k] may start a subtree at the decision being taken: in the
   persistent set and not asleep. *)
let eligible st ~full e k =
  (full || in_comp st k) && not (asleep st (Engine.tie_seq e k))

let n_elig n = Array.length n.elig / 2

(* Every fresh node of a run references that run's log, which holds the
   rows below the target: only those travel back, and the coordinator
   chains them onto its own copy of the target's log. *)
let pack (result, redundant, rdepth, choices, fresh) =
  let rows = match fresh with [] -> [||] | (f : node) :: _ -> f.log.rows in
  let fresh = List.map (fun f -> { f with log = no_log }) fresh in
  (result, redundant, rdepth, choices, fresh, rows)

let unpack (target : node) (result, redundant, rdepth, choices, fresh, rows) =
  let log = { up = target.log; base = target.depth; rows } in
  (result, redundant, rdepth, choices, List.map (fun f -> { f with log }) fresh)

(* A target for a worker: the node with its path flattened into one log,
   so the request carries exactly the rows a replay reads. *)
let detach (n : node) =
  let rows = Array.make (3 * n.depth) 0 in
  load n.log n.depth rows;
  { n with log = { up = no_log; base = 0; rows } }

let explore ?(full = false) ?(on_commit = fun ~run:_ _ -> ()) ?(jobs = 1)
    ~max_classes ~dependent run_fn =
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
  let classes = ref [] in
  let n_classes = ref 0 in
  let runs = ref 0 in
  let pruned = ref 0 in
  let complete = ref false in
  let st = new_scratch () in
  (* One run against [target], starting the subtree of its eligible
     member [snapshot] and touching no shared exploration state — so it
     can execute on a worker process and be committed later by the
     coordinator, which checks that [snapshot] is then the node's
     [next]. Only fresh nodes with a branch candidate are returned,
     since the rest can never be targeted; each is deeper than
     [target], which is what fixes the walk's commit order (see
     [batch]).

     The label table is run-local. That is equivalent to a persistent
     global one: every seq consulted by sleep-set filtering is a member
     of some ancestor's sleep or started set, and those are (by
     construction) seqs of tie sets at shallower depths along the same
     path — tie sets this run replays itself, recording every member's
     label before the first consultation. A global table could only
     differ on seqs this run never consults. *)
  let run_target (target : node option) ~snapshot =
    let tdepth, log =
      match target with
      | Some t -> (t.depth, { up = t.log; base = t.depth; rows = [||] })
      | None -> (-1, { up = no_log; base = 0; rows = [||] })
    in
    Array.fill st.labels 0 (Array.length st.labels) absent;
    set_sleep st no_sleep;
    if tdepth > 0 then begin
      reserve_rows st tdepth;
      load log.up tdepth st.rows
    end;
    let fresh : node list ref = ref [] in
    (* Label of the member picked at the previous decision: the
       transition that wakes the sleepers dependent on it. *)
    let last_label = ref 0 in
    let depth = ref 0 in
    let redundant = ref false in
    let target_forced = ref false in
    let choose e n =
      for k = 0 to n - 1 do
        set_label st (Engine.tie_seq e k) (Engine.tie_label e k)
      done;
      let d = !depth in
      incr depth;
      reserve_rows st (d + 1);
      let rows = st.rows in
      let pick =
        if d < tdepth then begin
          let p = rows.((3 * d) + 2) in
          if n <> rows.(3 * d) || Engine.tie_seq e p <> rows.((3 * d) + 1) then
            raise Diverged;
          p
        end
        else if d = tdepth then begin
          let t = Option.get target in
          let i = t.elig.(2 * snapshot) in
          if t.n_alts <> n || t.elig.((2 * snapshot) + 1) <> Engine.tie_seq e i
          then raise Diverged;
          target_forced := true;
          (* Run-local shadow of the target grown by this run's pick: the
             members whose subtrees started before it fall asleep beside
             the target's own sleepers. The node itself is only updated
             at commit. *)
          set_sleep st t.sleep;
          if not full then
            for k = 0 to snapshot - 1 do
              add_sleep st t.elig.((2 * k) + 1)
            done;
          last_label := Engine.tie_label e i;
          i
        end
        else if !redundant then 0
        else begin
          (* Sleep set: alternatives whose subtrees an earlier sibling
             has already begun covering stay asleep until something
             dependent executes (Godefroid). The invariant is
             order-independent — a sibling falls asleep as soon as its
             exploration {e starts}, whatever order subtrees are
             scheduled in — so at exhaustion every completed run is still
             a distinct class, and within a budget no class is ever
             counted twice. *)
          let tl = !last_label in
          let j = ref 0 in
          for k = 0 to st.n_sleep - 1 do
            let s = st.sleep.(k) in
            let l = label_of st s in
            if l <> absent && not (dependent l tl) then begin
              st.sleep.(!j) <- s;
              incr j
            end
          done;
          st.n_sleep <- !j;
          let taken = ref 0 in
          while !taken < n && asleep st (Engine.tie_seq e !taken) do
            incr taken
          done;
          if !taken = n then begin
            (* Every enabled alternative is asleep: any completion of
               this prefix is Mazurkiewicz-equivalent to an
               already-covered schedule. Finish the run FIFO but report
               it pruned. *)
            redundant := true;
            0
          end
          else begin
            let taken = !taken in
            if not full then mark_closure st ~dependent e n taken;
            let count = ref 0 in
            for k = 0 to n - 1 do
              if eligible st ~full e k then incr count
            done;
            if !count >= 2 then begin
              let elig = Array.make (2 * !count) 0 in
              let c = ref 0 in
              for k = 0 to n - 1 do
                if eligible st ~full e k then begin
                  elig.(2 * !c) <- k;
                  elig.((2 * !c) + 1) <- Engine.tie_seq e k;
                  incr c
                end
              done;
              let sleep =
                if st.n_sleep = 0 then no_sleep
                else Array.sub st.sleep 0 st.n_sleep
              in
              fresh :=
                { depth = d; log; n_alts = n; elig; sleep; next = 1 } :: !fresh
            end;
            last_label := Engine.tie_label e taken;
            taken
          end
        end
      in
      rows.(3 * d) <- n;
      rows.((3 * d) + 1) <- Engine.tie_seq e pick;
      rows.((3 * d) + 2) <- pick;
      pick
    in
    let result = run_fn ~choose in
    if tdepth >= 0 && not !target_forced then
      (* The run ended before reaching the targeted decision point — the
         simulation is not reproducing its prefix. *)
      raise Diverged;
    (match !fresh with
    | [] -> ()
    | deepest :: _ ->
        log.rows <-
          Array.sub st.rows (3 * log.base) (3 * (deepest.depth - log.base)));
    let choices =
      if !redundant then [||]
      else Array.init !depth (fun k -> st.rows.((3 * k) + 2))
    in
    (result, !redundant, !depth, choices, List.rev !fresh (* creation order *))
  in
  let stopped = ref false in
  (* Publish a finished run: account the class and adopt its fresh
     nodes, each deeper than the run's target ([tdepth], -1 for the
     root). Commit order IS the serial exploration order, so everything
     downstream (frontier order, run numbers, class indices, [on_commit]
     calls) is byte-identical to the serial walk whatever executed the
     runs. *)
  let rec adopt tdepth = function
    | [] -> ()
    | (f : node) :: rest ->
        assert (f.depth > tdepth);
        join f;
        adopt tdepth rest
  in
  let commit tdepth (result, redundant, rdepth, choices, fresh) =
    adopt tdepth fresh;
    incr runs;
    if redundant then incr pruned
    else begin
      classes :=
        { index = !n_classes; run = !runs; depth = rdepth; choices; result }
        :: !classes;
      incr n_classes
    end;
    on_commit ~run:!runs result;
    if !n_classes >= max_classes then stopped := true
  in
  (* Commit a run of [n]'s member [snapshot]: start that subtree
     (dropping [n] from the frontier once exhausted), then publish. The
     target must be the head of its bucket and [snapshot] its [next],
     which is the pair the serial walk selects. *)
  let commit_target ((n : node), snapshot) r =
    if not !stopped then begin
      let q = Imap.find n.depth !frontier in
      assert (Queue.peek q == n && snapshot = n.next);
      n.next <- n.next + 1;
      if n.next = n_elig n then begin
        ignore (Queue.pop q);
        if Queue.is_empty q then frontier := Imap.remove n.depth !frontier
      end;
      commit n.depth r
    end
  in
  (* The next [b] selections of the serial walk: the first (node,
     member) pairs of the shallowest bucket, nodes in queue order and
     each node's members from [next] on. A run creates nodes only deeper
     than its target, so committing these pairs adds nothing at or above
     their depth, and no commit among them can change which pairs come
     next: the batch is the serial walk's next [b] steps, or all that is
     left of the bucket. *)
  let batch b q =
    let rec nodes seq b =
      match seq () with
      | Seq.Nil -> []
      | Seq.Cons (n, rest) -> members n n.next rest b
    and members n k rest b =
      if b = 0 then []
      else if k = n_elig n then nodes rest b
      else (n, k) :: members n (k + 1) rest (b - 1)
    in
    nodes (Queue.to_seq q) b
  in
  (* Each step runs a batch of [b] targets through [run] and commits
     the answers in order until the budget stops the walk. *)
  let walk b run =
    while not !stopped do
      match Imap.min_binding_opt !frontier with
      | None ->
          complete := true;
          stopped := true
      | Some (_, q) ->
          let targets = batch b q in
          List.iter2 commit_target targets (run targets)
    done
  in
  (* The root run builds the initial tree and must run alone. It also
     interns every workload key, so workers forked after it agree with
     the coordinator on every key id inside a label. *)
  commit (-1) (run_target None ~snapshot:0);
  (if jobs > 1 && not !stopped then
     Fleet.with_workers ~jobs
       (fun ((n : node), snapshot) -> pack (run_target (Some n) ~snapshot))
       (fun workers ->
         walk (2 * jobs) (fun targets ->
             let answers =
               Fleet.map workers
                 (Array.of_list
                    (List.map (fun (n, snapshot) -> (detach n, snapshot)) targets))
             in
             List.mapi (fun i (n, _) -> unpack n answers.(i)) targets))
   else
     walk 1
       (List.map (fun ((n : node), snapshot) ->
            run_target (Some n) ~snapshot)));
  {
    classes = List.rev !classes;
    explored = !n_classes;
    runs = !runs;
    pruned = !pruned;
    complete = !complete;
  }
