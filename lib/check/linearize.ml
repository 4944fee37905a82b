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
  | W of bytes (* put, or one key's share of a committed or pending batch *)
  | R of bytes option (* get outcome *)
  | D of bool option
      (* delete outcome: did the key exist; [None] when the delete is
         pending, so its outcome was never seen *)

type op = { ev : History.event; sem : sem }

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
      | History.Put (key, v), (History.Ok_unit | History.Pending) ->
          add key { ev; sem = W v }
      | History.Get key, History.Got v -> add key { ev; sem = R v }
      | History.Delete key, History.Existed e ->
          add key { ev; sem = D (Some e) }
      | History.Delete key, History.Pending -> add key { ev; sem = D None }
      (* A pending read returned nothing, so it constrains nothing. *)
      | (History.Get _ | History.Scan _), _ -> ()
      (* A committed or pending batch expands into independent per-key
         writes here — a sound under-constraint (per-key it behaves like a
         put); its atomicity obligation is enforced by the component
         search, where the batch linearizes as one multi-slot write. An
         aborted batch must be invisible everywhere, so it contributes
         nothing and the per-key reads prove the invisibility. *)
      | History.Batch writes, (History.Committed true | History.Pending) ->
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

type scan_rec = {
  s_ev : History.event;
  s_from : string;
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

(* ---- the Wing–Gong search ----

   One search serves every check. Its state is a vector of registers,
   one slot per key: a per-key check searches one slot, a scan/batch
   component (below) its whole footprint. At every step any operation
   whose invocation precedes all unlinearized responses may linearize
   next, provided its recorded outcome is legal in the current state.
   Puts, gets and deletes step one slot; a committed batch steps all its
   slots at one point; a scan linearizes only at a point where its
   result is exactly the live contents of its range. A pending write
   (outcome [Pending]: a crash cut it off) takes either its effect or no
   step at all; its response is the cut, so it is decided before any op
   recorded after recovery. Failed (linearized set, state vector)
   configurations are memoized. *)

(* Register state between linearized ops, kept symbolic so memo entries
   compare in O(1): a value is named by the [op] index of the event that
   wrote it (unique within a slot, since a batch writes each key once)
   and carries its bytes for the reads that compare it. [V_init] is
   distinct from [V_absent] because the key may have been preloaded
   before recording started. *)
type state = V_init | V_absent | V_put of int * bytes

type step =
  | Key of int * sem (* a put, get or delete on one slot *)
  | Batch of (int * bytes) list (* (slot, value) per written key *)
  | Scan of scan_rec * (int * bytes) list
      (* returned items by slot, in [s_returned]'s iteration order *)

(* [search ~init keys ops] is [Ok ()] when [ops] (sorted by invocation)
   linearize over registers [keys], each starting at [init key].
   Otherwise it is the scan rejection seen at the deepest point of the
   search — the most-linearized candidate tells the most plausible story
   about which anomaly broke the snapshot — or [None] when no scan was
   ever rejected. *)
let search ~init keys ops =
  let nkeys = Array.length keys and n = Array.length ops in
  let init = Array.map init keys in
  let states = Array.make nkeys V_init in
  let present slot =
    match states.(slot) with
    | V_put _ -> true
    | V_absent -> false
    | V_init -> init.(slot) <> None
  in
  (* Steps [sem] on [slot] when its recorded outcome is legal there. *)
  let apply slot ev = function
    | W v ->
        states.(slot) <- V_put (ev.History.op, v);
        true
    | R r -> (
        match (states.(slot), r) with
        | V_put (_, v), Some v' -> Bytes.equal v v'
        | V_init, _ -> Option.equal Bytes.equal init.(slot) r
        | V_absent, None -> true
        | (V_put _ | V_absent), _ -> false)
    | D e ->
        (match e with Some e -> e = present slot | None -> true)
        && begin
             states.(slot) <- V_absent;
             true
           end
  in
  let best : (int * string * string * History.event) option ref = ref None in
  let note remaining reason key ev =
    match !best with
    | Some (r, _, _, _) when r <= remaining -> ()
    | _ -> best := Some (remaining, reason, key, ev)
  in
  let stale k =
    Printf.sprintf
      "torn/stale snapshot: the value scanned for %S belongs to a \
       different point in time than the rest of the result"
      k
  in
  let rec returned = function
    | [] -> None
    | (slot, v) :: rest -> (
        let k = keys.(slot) in
        match states.(slot) with
        | V_absent ->
            Some
              ( k,
                Printf.sprintf
                  "deleted-key ghost: scan returned %S, which is deleted \
                   at the candidate snapshot point"
                  k )
        | V_put (_, v') ->
            if Bytes.equal v' v then returned rest else Some (k, stale k)
        | V_init -> (
            match init.(slot) with
            | Some v0 when Bytes.equal v0 v -> returned rest
            | Some _ -> Some (k, stale k)
            | None ->
                Some
                  ( k,
                    Printf.sprintf
                      "scan returned %S before any write of that value \
                       could have taken effect"
                      k )))
  in
  let rec missing s slot =
    if slot = nkeys then None
    else
      let k = keys.(slot) in
      if in_range s k && (not (Hashtbl.mem s.s_returned k)) && present slot
      then
        Some
          ( k,
            Printf.sprintf
              "missing in-range key: %S is live at the candidate snapshot \
               point and inside the scanned range, but the scan omitted it"
              k )
      else missing s (slot + 1)
  in
  let scan_at_point remaining s items =
    match
      match returned items with None -> missing s 0 | failure -> failure
    with
    | None -> true
    | Some (k, reason) ->
        note remaining reason k s.s_ev;
        false
  in
  let linearized = Array.make n false in
  (* Dead-end configurations. Most searches see a handful of operations,
     so the table starts small and grows with the search: one
     preallocated 1024-bucket table per key is allocated straight in the
     major heap and costs more than the search it serves. *)
  let memo = Hashtbl.create 16 in
  (* A configuration's key is one string of fixed layout: the linearized
     set as a bitmap, then each slot's state in [width] little-endian
     bytes (0 initial, 1 absent, a put's op index + 2), wide enough for
     every op of the search. One layout per search makes it injective. *)
  let bitmap = (n + 7) / 8 in
  let width =
    let rec bytes x = if x < 0x100 then 1 else 1 + bytes (x lsr 8) in
    bytes (2 + Array.fold_left (fun m (ev, _) -> max m ev.History.op) 0 ops)
  in
  let encode () =
    let b = Bytes.create (bitmap + (nkeys * width)) in
    for byte = 0 to bitmap - 1 do
      let bits = ref 0 in
      for i = 8 * byte to min n ((8 * byte) + 8) - 1 do
        if linearized.(i) then bits := !bits lor (1 lsl (i land 7))
      done;
      Bytes.unsafe_set b byte (Char.unsafe_chr !bits)
    done;
    for slot = 0 to nkeys - 1 do
      let x =
        match states.(slot) with
        | V_init -> 0
        | V_absent -> 1
        | V_put (i, _) -> i + 2
      in
      let at = bitmap + (slot * width) in
      for k = 0 to width - 1 do
        Bytes.unsafe_set b (at + k)
          (Char.unsafe_chr ((x lsr (8 * k)) land 0xff))
      done
    done;
    Bytes.unsafe_to_string b
  in
  let rec go remaining =
    if remaining = 0 then true
    else
      let key = encode () in
      if Hashtbl.mem memo key then false
      else begin
        (* An op can linearize next only if its invocation precedes every
           unlinearized response — otherwise some unlinearized op finished
           wholly before it and must come first. *)
        let min_resp = ref max_int in
        for i = 0 to n - 1 do
          if not linearized.(i) then
            min_resp := min !min_resp (fst ops.(i)).History.resp
        done;
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < n do
          let j = !i in
          incr i;
          let ev, step = ops.(j) in
          if (not linearized.(j)) && ev.History.inv < !min_resp then begin
            (match step with
            | Key (slot, sem) ->
                let saved = states.(slot) in
                if apply slot ev sem then
                  if descend j remaining then found := true
                  else states.(slot) <- saved
            | Batch ws ->
                (* All the batch's slots step at one point — this is the
                   atomicity obligation of a committed transaction. *)
                let saved = List.map (fun (slot, _) -> states.(slot)) ws in
                List.iter
                  (fun (slot, v) -> states.(slot) <- V_put (ev.History.op, v))
                  ws;
                if descend j remaining then found := true
                else
                  List.iter2 (fun (slot, _) st -> states.(slot) <- st) ws saved
            | Scan (s, items) ->
                if scan_at_point remaining s items && descend j remaining then
                  found := true);
            (* The no-op step of a pending write. *)
            if
              (not !found)
              && ev.History.outcome == History.Pending
              && descend j remaining
            then found := true
          end
        done;
        if not !found then Hashtbl.add memo key ();
        !found
      end
  (* Linearizes op [j] next and searches on; unmarks it on a dead end. *)
  and descend j remaining =
    linearized.(j) <- true;
    go (remaining - 1)
    ||
    begin
      linearized.(j) <- false;
      false
    end
  in
  if go n then Ok ()
  else
    Error
      (Option.map (fun (_, reason, key, ev) -> (reason, key, ev)) !best)

let check_key ~init key ops =
  let steps = Array.map (fun o -> (o.ev, Key (0, o.sem))) ops in
  match search ~init [| key |] steps with
  | Ok () -> Ok ()
  | Error _ ->
      let n = Array.length ops in
      Error
        {
          key;
          reason =
            Printf.sprintf
              "no linearization of %d ops on %S is consistent with a \
               sequential map (initial value: %s)"
              n key
              (match init key with
              | None -> "absent"
              | Some v -> Printf.sprintf "%d bytes" (Bytes.length v));
          ops = Array.to_list (Array.map (fun o -> o.ev) ops);
        }

(* [writes] maps each key to its puts, deletes and batch shares, in
   invocation order (the per-key projection without its gets). *)
let check_scans ~init ~writes events =
  (* Weak, compositional obligations for scans — a cheap pre-filter in
     front of the snapshot search: the returned keys must be sorted
     strictly ascending from the start key, at most [count] long, and
     every returned value must have actually been written — by a put or
     batch invoked before the scan responded, or by the preload. *)
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
                (fun o ->
                  match o.sem with
                  | W v' ->
                      Bytes.equal v' v && o.ev.History.inv < ev.History.resp
                  | R _ | D _ -> false)
                (Option.value ~default:[] (Hashtbl.find_opt writes k))
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

(* ---- scans and batches: atomic multi-key operations ----

   Per-item conditions cannot see cross-key anomalies: a scan that
   returns a deleted key's old value, mixes values from incompatible
   points in time, or omits a key that was provably present passes every
   one of them. So each scan must be an atomic snapshot read: some single
   linearization point at which its result is exactly the live contents
   of its key range.

   Running the search over the whole history would couple every key and
   destroy the per-key locality that keeps the checker polynomial, so
   the search is restricted to each scan's {e footprint}: the scan
   itself plus the puts/deletes on its returned-or-in-range keys. Keys
   outside every scan's range keep the pure per-key decomposition, and
   gets stay in the per-key search (their constraints do not propagate
   into scan points — a deliberate, documented approximation that keeps
   the state space tractable). Scans whose footprints share a key are
   solved together as one connected component, since they constrain each
   other through that key.

   A committed 2PC batch is a multi-key write that must take effect at a
   single point. It joins the component search as an {e anchor} exactly
   like a scan: its footprint is its write set, overlapping footprints
   merge into one component, and inside the search it steps every
   written slot at once. A pending batch joins the same way and may also
   take no step, so a crash leaves it all or nothing. Aborted batches
   never appear. *)

type anchor =
  | A_scan of scan_rec
  | A_batch of History.event * (string * bytes) list

let anchor_ev = function A_scan s -> s.s_ev | A_batch (ev, _) -> ev

let batch_recs events =
  Array.fold_left
    (fun acc ev ->
      match (ev.History.call, ev.History.outcome) with
      | History.Batch writes, (History.Committed true | History.Pending) ->
          A_batch (ev, dedup_batch writes) :: acc
      | _ -> acc)
    [] events
  |> List.rev

(* A key's puts and deletes: its batch shares enter a component as
   their batch's one atomic step instead. *)
let key_writes writes k =
  List.filter
    (fun o ->
      match o.ev.History.call with History.Batch _ -> false | _ -> true)
    (Option.value ~default:[] (Hashtbl.find_opt writes k))

(* A preloaded key no put or delete ever touched has constant presence
   (a batch only overwrites it), so it must appear in every scan that
   covers it — checked statically, which keeps the preload set
   (arbitrarily large) out of the search. Needs the preload domain to be
   enumerable, hence [init_keys]. *)
let check_preload_static ~init ~init_keys ~writes scans =
  let rec go = function
    | [] -> Ok ()
    | k :: rest ->
        if init k <> None && key_writes writes k = [] then begin
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

let footprint writes a =
  let keys = Hashtbl.create 16 in
  (match a with
  | A_scan s ->
      Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) s.s_returned;
      Hashtbl.iter
        (fun k _ -> if in_range s k then Hashtbl.replace keys k ())
        writes
  | A_batch (_, ws) -> List.iter (fun (k, _) -> Hashtbl.replace keys k ()) ws);
  keys

(* Group anchors (scans and committed batches) into connected components
   of overlapping footprints, each with the union of its footprint
   keys. A scan's footprint is its returned keys plus every written key
   in its range. *)
let anchor_components anchors writes =
  let anchors = Array.of_list anchors in
  let n = Array.length anchors in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  let footprints = Array.map (footprint writes) anchors in
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

let check_component ~init anchors keys writes =
  let slot_of : (string, int) Hashtbl.t =
    Hashtbl.create (2 * Array.length keys)
  in
  Array.iteri (fun i k -> Hashtbl.replace slot_of k i) keys;
  let to_slot (k, v) = (Hashtbl.find slot_of k, v) in
  (* A scan's items on the component's keys: all of them, except for a
     final scan, which joins every component. *)
  let slot_items s =
    let items = ref [] in
    for slot = Array.length keys - 1 downto 0 do
      match Hashtbl.find_opt s.s_returned keys.(slot) with
      | Some v -> items := (slot, v) :: !items
      | None -> ()
    done;
    !items
  in
  let ops =
    let write_ops =
      Array.to_list keys
      |> List.mapi (fun slot k ->
             List.map
               (fun o -> (o.ev, Key (slot, o.sem)))
               (key_writes writes k))
      |> List.concat
    in
    let anchor_ops =
      List.map
        (function
          | A_scan s -> (s.s_ev, Scan (s, slot_items s))
          | A_batch (ev, ws) -> (ev, Batch (List.map to_slot ws)))
        anchors
    in
    let a = Array.of_list (write_ops @ anchor_ops) in
    Array.sort (fun (a, _) (b, _) -> compare a.History.inv b.History.inv) a;
    a
  in
  match search ~init keys ops with
  | Ok () -> Ok ()
  | Error (Some (reason, key, scan_ev)) ->
      Error
        {
          key;
          reason = Printf.sprintf "scan is not an atomic snapshot: %s" reason;
          ops =
            scan_ev
            :: List.map (fun o -> o.ev)
                 (Option.value ~default:[] (Hashtbl.find_opt writes key));
        }
  | Error None ->
      let count p = List.length (List.filter p anchors) in
      let nscans = count (function A_scan _ -> true | A_batch _ -> false)
      and nbatches = count (function A_batch _ -> true | A_scan _ -> false) in
      Error
        {
          key = "";
          reason =
            Printf.sprintf
              "no linearization of %d writes, %d batches and %d scans over \
               %d keys admits an atomic point for every scan and batch"
              (Array.length ops - nscans - nbatches)
              nbatches nscans (Array.length keys);
          ops = Array.to_list (Array.map fst ops);
        }

(* The anchors' components. A scan invoked after every other op
   responded (the read after a recovery is one) sees the final state,
   and nothing can linearize between its parts, so it splits by key
   without loss: every component gets the scan's share of its keys, and
   every other key of its footprint is a component of its own. Left
   whole, it would join all those keys into one component, whose search
   walks every thread interleaving before it can fail. *)

let components events scans batches writes =
  let group scans =
    anchor_components
      (List.map (fun s -> A_scan s) scans @ batches
      |> List.sort (fun a b ->
             compare (anchor_ev a).History.inv (anchor_ev b).History.inv))
      writes
  in
  match List.rev scans with
  | s :: others
    when Array.for_all
           (fun e -> e == s.s_ev || e.History.resp < s.s_ev.History.inv)
           events ->
      let comps = group (List.rev others) in
      let taken = Hashtbl.create 64 in
      List.iter
        (fun (_, keys) -> Array.iter (fun k -> Hashtbl.replace taken k ()) keys)
        comps;
      let alone =
        Hashtbl.fold
          (fun k () acc -> if Hashtbl.mem taken k then acc else k :: acc)
          (footprint writes (A_scan s))
          []
        |> List.sort compare
        |> List.map (fun k -> ([], [| k |]))
      in
      List.map
        (fun (members, keys) -> (A_scan s :: members, keys))
        (comps @ alone)
  | _ -> group scans

let check_anchors ~init ~init_keys events per_key =
  match (scan_recs events, batch_recs events) with
  | [], [] -> Ok ()
  | scans, batches -> (
      let writes = Hashtbl.create 64 in
      List.iter
        (fun (k, ops) ->
          match
            List.filter
              (fun o -> match o.sem with R _ -> false | W _ | D _ -> true)
              (Array.to_list ops)
          with
          | [] -> ()
          | w -> Hashtbl.replace writes k w)
        per_key;
      match check_scans ~init ~writes events with
      | Error _ as e -> e
      | Ok () -> (
          match check_preload_static ~init ~init_keys ~writes scans with
          | Error _ as e -> e
          | Ok () ->
              let rec comps = function
                | [] -> Ok ()
                | (members, keys) :: rest -> (
                    match check_component ~init members keys writes with
                    | Ok () -> comps rest
                    | Error _ as e -> e)
              in
              comps (components events scans batches writes)))

let check ?(init = fun _ -> None) ?(init_keys = []) events =
  let per_key = project events in
  let rec keys = function
    | [] -> check_anchors ~init ~init_keys events per_key
    | (key, ops) :: rest -> (
        match check_key ~init key ops with
        | Ok () -> keys rest
        | Error v -> Error v)
  in
  keys per_key

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
