type violation = {
  key : string;
  reason : string;
  ops : History.event list;
}

(* Per-key projection of the history. Linearizability is local (Herlihy &
   Wing): a map history is linearizable iff each key's subhistory is
   linearizable as a single register with put/get/delete semantics, so we
   check one key at a time and the search never sees the cross product of
   unrelated keys' interleavings. *)

type sem =
  | W of bytes (* put *)
  | R of bytes option (* get outcome *)
  | D of bool (* delete outcome: did the key exist *)

type op = { ev : History.event; sem : sem }

(* Register state between linearized ops, kept symbolic so memo entries
   compare in O(1): the value is named by the index of the put that wrote
   it, not by its bytes. [V_init] is distinct from [V_absent] because the
   key may have been preloaded before recording started. *)
type state = V_init | V_absent | V_put of int

(* Within one batch a later write to the same key wins (the cluster's
   documented semantics); expansion keeps only the winners. *)
let dedup_batch writes =
  let seen = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace seen k v) writes;
  List.filter_map
    (fun (k, _) ->
      match Hashtbl.find_opt seen k with
      | Some v ->
          Hashtbl.remove seen k;
          Some (k, v)
      | None -> None)
    writes

let project events =
  let by_key = Hashtbl.create 64 in
  let add key op =
    let cur = Option.value ~default:[] (Hashtbl.find_opt by_key key) in
    Hashtbl.replace by_key key (op :: cur)
  in
  Array.iter
    (fun ev ->
      match (ev.History.call, ev.History.outcome) with
      | History.Put (key, v), History.Ok_unit -> add key { ev; sem = W v }
      | History.Get key, History.Got v -> add key { ev; sem = R v }
      | History.Delete key, History.Existed e -> add key { ev; sem = D e }
      | History.Scan _, _ -> ()
      (* A committed batch expands into independent per-key writes here —
         a sound under-constraint (per-key it behaves like a put); its
         atomicity obligation is enforced by the component search, where
         the batch linearizes as one multi-slot write. An aborted batch
         must be invisible everywhere, so it contributes nothing and the
         per-key reads prove the invisibility. *)
      | History.Batch writes, History.Committed true ->
          List.iter (fun (k, v) -> add k { ev; sem = W v }) (dedup_batch writes)
      | History.Batch _, History.Committed false -> ()
      | _ -> invalid_arg "Linearize: mismatched call/outcome")
    events;
  Hashtbl.fold
    (fun key ops acc ->
      let a = Array.of_list (List.rev ops) in
      Array.sort (fun a b -> compare a.ev.History.inv b.ev.History.inv) a;
      (key, a) :: acc)
    by_key []

(* [step init_present state op] is [Some state'] when [op]'s recorded
   outcome is legal from [state], where [init_present] tells whether the
   key held [init_value] before the history began. *)
let step ~init_value state op =
  match (op.sem, state) with
  | W _, _ -> Some (V_put op.ev.History.op)
  | R None, (V_absent | V_init) ->
      if state = V_init && init_value <> None then None else Some state
  | R (Some v), V_init -> (
      match init_value with
      | Some v0 when Bytes.equal v v0 -> Some state
      | Some _ | None -> None)
  | R (Some _), V_absent -> None
  | R None, V_put _ -> None
  | R (Some _), V_put _ -> None (* resolved by caller with put lookup *)
  | D e, (V_absent | V_init) ->
      let present = state = V_init && init_value <> None in
      if e = present then Some V_absent else None
  | D e, V_put _ -> if e then Some V_absent else None

let check_key ~init key ops =
  let n = Array.length ops in
  let init_value = init key in
  let value_of = Hashtbl.create 16 in
  Array.iter
    (fun op ->
      match op.sem with
      | W v -> Hashtbl.replace value_of op.ev.History.op v
      | R _ | D _ -> ())
    ops;
  let step state op =
    match (op.sem, state) with
    | R (Some v), V_put i ->
        if Bytes.equal v (Hashtbl.find value_of i) then Some state else None
    | _ -> step ~init_value state op
  in
  let linearized = Array.make n false in
  (* Dead-end (linearized set, state) encodings. Most keys see a handful
     of operations, so the table starts small and grows with the search:
     one preallocated 1024-bucket table per key is allocated straight in
     the major heap and costs more than the search it serves. *)
  let memo = Hashtbl.create 16 in
  let encode state =
    let b = Buffer.create (n + 8) in
    Array.iter (fun l -> Buffer.add_char b (if l then '1' else '0')) linearized;
    (match state with
    | V_init -> Buffer.add_string b "i"
    | V_absent -> Buffer.add_string b "a"
    | V_put i -> Buffer.add_string b (string_of_int i));
    Buffer.contents b
  in
  let rec search remaining state =
    if remaining = 0 then true
    else
      let key = encode state in
      if Hashtbl.mem memo key then false
      else begin
        (* An op can linearize next only if its invocation precedes every
           unlinearized response — otherwise some unlinearized op finished
           wholly before it and must come first. *)
        let min_resp = ref max_int in
        for i = 0 to n - 1 do
          if not linearized.(i) then
            min_resp := min !min_resp ops.(i).ev.History.resp
        done;
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < n do
          let j = !i in
          incr i;
          if (not linearized.(j)) && ops.(j).ev.History.inv < !min_resp then begin
            match step state ops.(j) with
            | Some state' ->
                linearized.(j) <- true;
                if search (remaining - 1) state' then found := true
                else linearized.(j) <- false
            | None -> ()
          end
        done;
        if not !found then Hashtbl.add memo key ();
        !found
      end
  in
  if search n V_init then Ok ()
  else
    Error
      {
        key;
        reason =
          Printf.sprintf
            "no linearization of %d ops on %S is consistent with a \
             sequential map (initial value: %s)"
            n key
            (match init_value with
            | None -> "absent"
            | Some v -> Printf.sprintf "%d bytes" (Bytes.length v));
        ops = Array.to_list (Array.map (fun o -> o.ev) ops);
      }

let check_scans ~init events =
  (* Weak, compositional obligations for scans — kept as a cheap
     pre-filter in front of the strict snapshot check (and as the
     [`Weak] escape hatch): the returned keys must be sorted strictly
     ascending from the start key, at most [count] long, and every
     returned value must have actually been written — by a put that was
     invoked before the scan responded, or by the preload. Membership is
     answered from a per-key put index, so the pass costs
     O(history + Σ items · puts-on-that-key) instead of the old
     O(items × history). *)
  let puts_by_key : (string, (bytes * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iter
    (fun e ->
      let add k v =
        Hashtbl.replace puts_by_key k
          ((v, e.History.inv)
          :: Option.value ~default:[] (Hashtbl.find_opt puts_by_key k))
      in
      match (e.History.call, e.History.outcome) with
      | History.Put (k, v), History.Ok_unit -> add k v
      | History.Batch writes, History.Committed true ->
          List.iter (fun (k, v) -> add k v) (dedup_batch writes)
      | _ -> ())
    events;
  let err ev reason = Error { key = ""; reason; ops = [ ev ] } in
  let check_one ev from count items =
    let rec go prev = function
      | [] -> Ok ()
      | (k, v) :: rest ->
          if k < from then err ev (Printf.sprintf "scan returned %S < start %S" k from)
          else if (match prev with Some p -> k <= p | None -> false) then
            err ev (Printf.sprintf "scan keys not strictly ascending at %S" k)
          else begin
            let written =
              List.exists
                (fun (v', inv) ->
                  Bytes.equal v' v && inv < ev.History.resp)
                (Option.value ~default:[] (Hashtbl.find_opt puts_by_key k))
              ||
              match init k with
              | Some v0 -> Bytes.equal v0 v
              | None -> false
            in
            if not written then
              err ev
                (Printf.sprintf "scan returned a value for %S nobody wrote" k)
            else go (Some k) rest
          end
    in
    if List.length items > count then
      err ev
        (Printf.sprintf "scan returned %d items, asked for %d"
           (List.length items) count)
    else go None items
  in
  Array.fold_left
    (fun acc ev ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match (ev.History.call, ev.History.outcome) with
          | History.Scan (from, count), History.Items items ->
              check_one ev from count items
          | _ -> Ok ()))
    (Ok ()) events

(* ---- strict scans: atomic multi-key snapshot reads (§ Wing–Gong
   folding) ----

   The weak conditions above cannot see cross-key anomalies: a scan that
   returns a deleted key's old value, mixes values from incompatible
   points in time, or omits a key that was provably present passes every
   per-item test. The strict check folds each scan into the Wing–Gong
   search as one atomic multi-key read: some single linearization point
   must exist at which the scan's result is exactly the live contents of
   its key range.

   Running the search over the whole history would couple every key and
   destroy the per-key locality that keeps the checker polynomial, so
   the search is restricted to each scan's {e footprint}: the scan
   itself plus the puts/deletes on its returned-or-in-range keys. Keys
   outside every scan's range keep the pure per-key decomposition, and
   gets stay in the per-key search (their constraints do not propagate
   into scan points — a deliberate, documented approximation that keeps
   the state space tractable). Scans whose footprints share a key are
   solved together as one connected component, since they constrain each
   other through that key. *)

type scan_rec = {
  s_ev : History.event;
  s_from : string;
  s_count : int;
  s_returned : (string, bytes) Hashtbl.t;
  s_upper : string option;
      (* inclusive upper end of the covered range: the last returned key
         when the scan filled its count (later keys were legitimately cut
         off), unbounded when it returned fewer than asked *)
  s_covered : bool; (* a count-0 scan covers nothing *)
}

let scan_recs events =
  Array.fold_left
    (fun acc ev ->
      match (ev.History.call, ev.History.outcome) with
      | History.Scan (from, count), History.Items items ->
          let returned = Hashtbl.create (List.length items + 1) in
          List.iter (fun (k, v) -> Hashtbl.replace returned k v) items;
          let n = List.length items in
          let upper =
            if n = count && n > 0 then Some (fst (List.nth items (n - 1)))
            else None
          in
          {
            s_ev = ev;
            s_from = from;
            s_count = count;
            s_returned = returned;
            s_upper = upper;
            s_covered = count > 0;
          }
          :: acc
      | _ -> acc)
    [] events
  |> List.rev

let in_range s k =
  s.s_covered
  && String.compare k s.s_from >= 0
  && (match s.s_upper with
     | None -> true
     | Some u -> String.compare k u <= 0)

(* Puts and deletes only: gets stay in the per-key search, and batch
   writes enter the component as one atomic anchor (below), never as
   independent writes. *)
let writes_by_key events =
  let tbl : (string, op list) Hashtbl.t = Hashtbl.create 64 in
  let add k o =
    Hashtbl.replace tbl k
      (o :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  Array.iter
    (fun ev ->
      match (ev.History.call, ev.History.outcome) with
      | History.Put (k, v), History.Ok_unit -> add k { ev; sem = W v }
      | History.Delete k, History.Existed e -> add k { ev; sem = D e }
      | _ -> ())
    events;
  tbl

(* ---- strict serializability: batches as atomic anchors ----

   A committed 2PC batch is a multi-key write that must take effect at a
   single point. It joins the component search as an {e anchor} exactly
   like a scan: its footprint is its write set, overlapping footprints
   merge into one component, and inside the search it steps every
   written slot at once. Aborted batches never appear. *)

type anchor =
  | A_scan of scan_rec
  | A_batch of History.event * (string * bytes) list

let anchor_ev = function A_scan s -> s.s_ev | A_batch (ev, _) -> ev

let batch_recs events =
  Array.fold_left
    (fun acc ev ->
      match (ev.History.call, ev.History.outcome) with
      | History.Batch writes, History.Committed true ->
          A_batch (ev, dedup_batch writes) :: acc
      | _ -> acc)
    [] events
  |> List.rev

(* A preloaded key no operation ever wrote has constant presence, so it
   must appear in every scan that covers it — checked statically, which
   keeps the preload set (arbitrarily large) out of the search. Needs the
   preload domain to be enumerable, hence [init_keys]. *)
let check_preload_static ~init ~init_keys ~writes scans =
  let rec go = function
    | [] -> Ok ()
    | k :: rest ->
        if init k <> None && not (Hashtbl.mem writes k) then begin
          match
            List.find_opt
              (fun s -> in_range s k && not (Hashtbl.mem s.s_returned k))
              scans
          with
          | Some s ->
              Error
                {
                  key = k;
                  reason =
                    Printf.sprintf
                      "scan missed in-range key %S — preloaded, never \
                       written, so present at every candidate snapshot \
                       point"
                      k;
                  ops = [ s.s_ev ];
                }
          | None -> go rest
        end
        else go rest
  in
  go init_keys

(* Group anchors (scans and committed batches) into connected components
   of overlapping footprints, each with the union of its footprint
   keys. *)
let anchor_components anchors writes =
  let anchors = Array.of_list anchors in
  let n = Array.length anchors in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  let footprints =
    Array.map
      (fun a ->
        let keys = Hashtbl.create 16 in
        (match a with
        | A_scan s ->
            Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) s.s_returned;
            Hashtbl.iter
              (fun k _ -> if in_range s k then Hashtbl.replace keys k ())
              writes
        | A_batch (_, ws) ->
            List.iter (fun (k, _) -> Hashtbl.replace keys k ()) ws);
        keys)
      anchors
  in
  let owner : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i keys ->
      Hashtbl.iter
        (fun k () ->
          match Hashtbl.find_opt owner k with
          | Some j -> union i j
          | None -> Hashtbl.replace owner k i)
        keys)
    footprints;
  let comps : (int, anchor list ref * (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  Array.iteri
    (fun i a ->
      let root = find i in
      let members, keys =
        match Hashtbl.find_opt comps root with
        | Some c -> c
        | None ->
            let c = (ref [], Hashtbl.create 16) in
            Hashtbl.replace comps root c;
            c
      in
      members := a :: !members;
      Hashtbl.iter (fun k () -> Hashtbl.replace keys k ()) footprints.(i))
    anchors;
  Hashtbl.fold
    (fun _root (members, keys) acc ->
      let keys =
        Hashtbl.fold (fun k () l -> k :: l) keys [] |> List.sort compare
      in
      (List.rev !members, Array.of_list keys) :: acc)
    comps []

type comp_op =
  | C_write of op * int (* slot of the written key *)
  | C_scan of scan_rec
  | C_batch of History.event * (int * bytes) list (* (slot, value) list *)

let comp_ev = function
  | C_write (o, _) -> o.ev
  | C_scan s -> s.s_ev
  | C_batch (ev, _) -> ev

(* One Wing–Gong search over a component: state is the whole footprint's
   key -> register map, writes/deletes step their key's slot, and a scan
   linearizes only at a point where its result is exactly the live
   in-range contents. Memoized on (linearized set, state vector) like the
   per-key search. *)
let check_component ~init anchors keys writes =
  let nkeys = Array.length keys in
  let slot_of : (string, int) Hashtbl.t = Hashtbl.create (2 * nkeys) in
  Array.iteri (fun i k -> Hashtbl.replace slot_of k i) keys;
  (* Write identity must be unique per (event, slot): one batch event
     writes several slots, each carrying its own value. *)
  let wid ev slot = (ev.History.op * nkeys) + slot in
  let ops =
    let writes_ops =
      Array.to_list keys
      |> List.concat_map (fun k ->
             Option.value ~default:[] (Hashtbl.find_opt writes k)
             |> List.map (fun o -> C_write (o, Hashtbl.find slot_of k)))
    in
    let anchor_ops =
      List.map
        (function
          | A_scan s -> C_scan s
          | A_batch (ev, ws) ->
              C_batch
                ( ev,
                  List.map
                    (fun (k, v) -> (Hashtbl.find slot_of k, v))
                    ws ))
        anchors
    in
    let a = Array.of_list (writes_ops @ anchor_ops) in
    Array.sort
      (fun a b ->
        compare (comp_ev a).History.inv (comp_ev b).History.inv)
      a;
    a
  in
  let n = Array.length ops in
  let value_of : (int, bytes) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun op ->
      match op with
      | C_write (({ ev; sem = W v } : op), slot) ->
          Hashtbl.replace value_of (wid ev slot) v
      | C_batch (ev, ws) ->
          List.iter
            (fun (slot, v) -> Hashtbl.replace value_of (wid ev slot) v)
            ws
      | C_write _ | C_scan _ -> ())
    ops;
  let states = Array.make nkeys V_init in
  let present slot =
    match states.(slot) with
    | V_put _ -> true
    | V_absent -> false
    | V_init -> init keys.(slot) <> None
  in
  (* Diagnosis for the report: remember the scan rejection seen at the
     deepest point of the search — the most-linearized candidate tells
     the most plausible story about which anomaly broke the snapshot. *)
  let best : (int * string * string * History.event) option ref = ref None in
  let note remaining reason key ev =
    match !best with
    | Some (r, _, _, _) when r <= remaining -> ()
    | _ -> best := Some (remaining, reason, key, ev)
  in
  let scan_at_point remaining s =
    let failure = ref None in
    Hashtbl.iter
      (fun k v ->
        if !failure = None then
          let slot = Hashtbl.find slot_of k in
          match states.(slot) with
          | V_absent ->
              failure :=
                Some
                  ( k,
                    Printf.sprintf
                      "deleted-key ghost: scan returned %S, which is \
                       deleted at the candidate snapshot point"
                      k )
          | V_put i ->
              if not (Bytes.equal (Hashtbl.find value_of i) v) then
                failure :=
                  Some
                    ( k,
                      Printf.sprintf
                        "torn/stale snapshot: the value scanned for %S \
                         belongs to a different point in time than the \
                         rest of the result"
                        k )
          | V_init -> (
              match init k with
              | Some v0 when Bytes.equal v0 v -> ()
              | Some _ ->
                  failure :=
                    Some
                      ( k,
                        Printf.sprintf
                          "torn/stale snapshot: the value scanned for %S \
                           belongs to a different point in time than the \
                           rest of the result"
                          k )
              | None ->
                  failure :=
                    Some
                      ( k,
                        Printf.sprintf
                          "scan returned %S before any write of that \
                           value could have taken effect"
                          k )))
      s.s_returned;
    for slot = 0 to nkeys - 1 do
      if !failure = None then
        let k = keys.(slot) in
        if
          in_range s k
          && (not (Hashtbl.mem s.s_returned k))
          && present slot
        then
          failure :=
            Some
              ( k,
                Printf.sprintf
                  "missing in-range key: %S is live at the candidate \
                   snapshot point and inside the scanned range, but the \
                   scan omitted it"
                  k )
    done;
    match !failure with
    | None -> true
    | Some (k, reason) ->
        note remaining reason k s.s_ev;
        false
  in
  let linearized = Array.make n false in
  (* Sized to grow with the search, as in [check_key]. *)
  let memo = Hashtbl.create 16 in
  let encode () =
    let b = Buffer.create (n + (2 * nkeys) + 8) in
    Array.iter (fun l -> Buffer.add_char b (if l then '1' else '0')) linearized;
    Array.iter
      (fun st ->
        match st with
        | V_init -> Buffer.add_string b ";i"
        | V_absent -> Buffer.add_string b ";a"
        | V_put i ->
            Buffer.add_char b ';';
            Buffer.add_string b (string_of_int i))
      states;
    Buffer.contents b
  in
  let rec search remaining =
    if remaining = 0 then true
    else
      let key = encode () in
      if Hashtbl.mem memo key then false
      else begin
        let min_resp = ref max_int in
        for i = 0 to n - 1 do
          if not linearized.(i) then
            min_resp := min !min_resp (comp_ev ops.(i)).History.resp
        done;
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < n do
          let j = !i in
          incr i;
          if
            (not linearized.(j))
            && (comp_ev ops.(j)).History.inv < !min_resp
          then begin
            match ops.(j) with
            | C_write (op, slot) -> (
                let saved = states.(slot) in
                let legal =
                  match op.sem with
                  | W _ ->
                      states.(slot) <- V_put (wid op.ev slot);
                      true
                  | D e ->
                      if e = present slot then begin
                        states.(slot) <- V_absent;
                        true
                      end
                      else false
                  | R _ -> false (* gets never enter a component *)
                in
                if legal then begin
                  linearized.(j) <- true;
                  if search (remaining - 1) then found := true
                  else begin
                    linearized.(j) <- false;
                    states.(slot) <- saved
                  end
                end
                else states.(slot) <- saved)
            | C_batch (ev, ws) ->
                (* All the batch's slots step at one point — this is the
                   atomicity obligation of a committed transaction. *)
                let saved = List.map (fun (slot, _) -> states.(slot)) ws in
                List.iter
                  (fun (slot, _) -> states.(slot) <- V_put (wid ev slot))
                  ws;
                linearized.(j) <- true;
                if search (remaining - 1) then found := true
                else begin
                  linearized.(j) <- false;
                  List.iter2
                    (fun (slot, _) st -> states.(slot) <- st)
                    ws saved
                end
            | C_scan s ->
                if scan_at_point remaining s then begin
                  linearized.(j) <- true;
                  if search (remaining - 1) then found := true
                  else linearized.(j) <- false
                end
          end
        done;
        if not !found then Hashtbl.add memo key ();
        !found
      end
  in
  if search n then Ok ()
  else
    match !best with
    | Some (_, reason, key, scan_ev) ->
        let key_ops =
          Option.value ~default:[] (Hashtbl.find_opt writes key)
          |> List.map (fun o -> o.ev)
          |> List.sort (fun a b -> compare a.History.inv b.History.inv)
        in
        Error
          {
            key;
            reason =
              Printf.sprintf "scan is not an atomic snapshot: %s" reason;
            ops = scan_ev :: key_ops;
          }
    | None ->
        let nscans =
          List.length
            (List.filter (function A_scan _ -> true | _ -> false) anchors)
        and nbatches =
          List.length
            (List.filter (function A_batch _ -> true | _ -> false) anchors)
        in
        Error
          {
            key = "";
            reason =
              Printf.sprintf
                "no linearization of %d writes, %d batches and %d scans \
                 over %d keys admits an atomic point for every scan and \
                 batch"
                (n - nscans - nbatches)
                nbatches nscans nkeys;
            ops = Array.to_list (Array.map comp_ev ops);
          }

let check_scans_strict ~init ~init_keys events =
  let scans = scan_recs events in
  let batches = batch_recs events in
  match (scans, batches) with
  | [], [] -> Ok ()
  | _ -> (
      let writes = writes_by_key events in
      match check_preload_static ~init ~init_keys ~writes scans with
      | Error _ as e -> e
      | Ok () ->
          let anchors = List.map (fun s -> A_scan s) scans @ batches in
          let anchors =
            List.sort
              (fun a b ->
                compare (anchor_ev a).History.inv (anchor_ev b).History.inv)
              anchors
          in
          let rec comps = function
            | [] -> Ok ()
            | (members, keys) :: rest -> (
                match check_component ~init members keys writes with
                | Ok () -> comps rest
                | Error _ as e -> e)
          in
          comps (anchor_components anchors writes))

let check ?(init = fun _ -> None) ?(init_keys = []) ?(scans = `Strict)
    events =
  let rec keys = function
    | [] -> (
        match check_scans ~init events with
        | Error _ as e -> e
        | Ok () -> (
            match scans with
            | `Weak -> Ok ()
            | `Strict -> check_scans_strict ~init ~init_keys events))
    | (key, ops) :: rest -> (
        match check_key ~init key ops with
        | Ok () -> keys rest
        | Error v -> Error v)
  in
  keys (project events)

let pp_violation fmt v =
  (* The violating window in virtual time: from the first involved
     invocation to the last involved response. Points a debugger at the
     slice of the schedule worth replaying. *)
  (match v.ops with
  | [] -> ()
  | ops ->
      let lo =
        List.fold_left
          (fun acc e -> min acc e.History.inv_time)
          infinity ops
      and hi =
        List.fold_left
          (fun acc e -> max acc e.History.resp_time)
          neg_infinity ops
      in
      Format.fprintf fmt "window [%.6fs, %.6fs] " lo hi);
  Format.fprintf fmt "@[<v>%s@,%a@]" v.reason
    (Format.pp_print_list History.pp_event)
    v.ops
