(* Output oracle: checks every value a get or scan returns against the
   puts the benchmark issued, in O(1) per item.

   Every put gets an id and a logical start and end stamp (one clock
   ticks at every invocation and completion; the simulation runs one
   event at a time, so the order is total). For each key the oracle keeps
   the largest start stamp among its completed puts ([floor]). A read
   that began after a put p' completed must not return a put r that had
   completed before p' started: r is then superseded in every
   linearization. The check is sound (no false alarm under any legal
   interleaving) and O(1): a get snapshots its key's floor when it
   begins. A scan cannot snapshot every key it will return, so each key
   also keeps the floor it had before its latest raise; an item whose
   key was raised twice during the scan is not checked.

   Aborted batch writes must never be read. *)

let incomplete = max_int

let aborted = -1

type t = {
  keys : string array;  (** key strings by key index *)
  records : int;  (** key indices below this are loaded and never deleted *)
  sorted : int array;  (** loaded key indices in key order *)
  mutable clock : int;
  mutable next_put : int;
  put_key : int array;
  put_end : int array;  (** end stamp; [incomplete] or [aborted] *)
  floor : int array;
  floor_at : int array;
  prev_floor : int array;
  prev_at : int array;
  exists_at : int array;  (** end stamp of a key's first completed put *)
  mutable failed : int;
  mutable notes : string list;  (** the first few failures, newest first *)
}

let create ~keys ~records ~max_puts =
  let n = Array.length keys in
  let sorted = Array.init records Fun.id in
  Array.sort (fun a b -> String.compare keys.(a) keys.(b)) sorted;
  {
    keys;
    records;
    sorted;
    clock = 0;
    next_put = 0;
    put_key = Array.make max_puts (-1);
    put_end = Array.make max_puts incomplete;
    floor = Array.make n (-1);
    floor_at = Array.make n (-1);
    prev_floor = Array.make n (-1);
    prev_at = Array.make n (-1);
    exists_at = Array.make n incomplete;
    failed = 0;
    notes = [];
  }

let failures t = t.failed

let notes t = List.rev t.notes

let fail t fmt =
  Printf.ksprintf
    (fun s ->
      t.failed <- t.failed + 1;
      if t.failed <= 5 then t.notes <- s :: t.notes)
    fmt

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* [begin_put t k] allocates a put id for key [k]; its start stamp is the
   clock at invocation. Returns [(id, start)]. *)
let begin_put t k =
  let id = t.next_put in
  if id >= Array.length t.put_key then failwith "Oracle: put-id space exhausted";
  t.next_put <- id + 1;
  t.put_key.(id) <- k;
  (id, tick t)

let end_put t k ~id ~start =
  let now = tick t in
  t.put_end.(id) <- now;
  if start > t.floor.(k) then begin
    t.prev_floor.(k) <- t.floor.(k);
    t.prev_at.(k) <- t.floor_at.(k);
    t.floor.(k) <- start;
    t.floor_at.(k) <- now
  end;
  if t.exists_at.(k) = incomplete then t.exists_at.(k) <- now

let abort_put t ~id = t.put_end.(id) <- aborted

(* A read's view of key [k] as of stamp [at]: the floor then in force, or
   [None] when the history kept is too short to tell. *)
let floor_as_of t k ~at =
  if t.floor_at.(k) <= at then Some t.floor.(k)
  else if t.prev_at.(k) <= at then Some t.prev_floor.(k)
  else None

(* Check a value returned for key [k] by a read whose view of the key is
   [floor]. Returns the put id read, or -1 after recording a failure. *)
let check_value t ~what k ~floor v =
  match Inputs.unstamp v with
  | None ->
      fail t "%s %s: malformed value" what t.keys.(k);
      -1
  | Some (vk, id) ->
      if vk <> k || id < 0 || id >= t.next_put || t.put_key.(id) <> k then begin
        fail t "%s %s: value of put %d for key index %d" what t.keys.(k) id vk;
        -1
      end
      else if t.put_end.(id) = aborted then begin
        fail t "%s %s: returned put %d of an aborted batch" what t.keys.(k) id;
        -1
      end
      else if t.put_end.(id) < floor then begin
        fail t "%s %s: put %d was superseded before the read began" what
          t.keys.(k) id;
        -1
      end
      else id

(* A get: [begin_read] snapshots the key's floor; [end_get] checks the
   result. *)
let begin_read t k =
  ignore (tick t);
  t.floor.(k)

let end_get t k ~floor r =
  ignore (tick t);
  match r with
  | Some v -> ignore (check_value t ~what:"get" k ~floor v)
  | None -> if k < t.records then fail t "get %s: missing" t.keys.(k)

(* Index of [k] in the key order of loaded keys: the first loaded key
   [>= key]. *)
let lower_bound t key =
  let lo = ref 0 and hi = ref t.records in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare t.keys.(t.sorted.(mid)) key < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let key_index t key v =
  match Inputs.unstamp v with
  | Some (k, _) when k >= 0 && k < Array.length t.keys && t.keys.(k) = key ->
      Some k
  | _ -> None

(* A scan from key index [k] asking for [len] items that began at stamp
   [at]: items strictly ascending from the start key, every loaded key in
   the covered range present, short only when no loaded key is left, and
   every value valid for its key. *)
let end_scan t k ~len ~at items =
  ignore (tick t);
  let start = t.keys.(k) in
  let pos = ref (lower_bound t start) in
  let prev = ref None in
  let n = ref 0 in
  List.iter
    (fun (key, v) ->
      incr n;
      (match !prev with
      | Some p when String.compare p key >= 0 ->
          fail t "scan %s: key %s out of order" start key
      | _ -> ());
      if String.compare key start < 0 then
        fail t "scan %s: key %s before the start" start key;
      prev := Some key;
      match key_index t key v with
      | None -> fail t "scan %s: item %s carries another key's value" start key
      | Some ki ->
          if ki < t.records then begin
            if !pos < t.records && t.sorted.(!pos) = ki then incr pos
            else
              fail t "scan %s: loaded key %s skipped before %s" start
                (if !pos < t.records then t.keys.(t.sorted.(!pos)) else "end")
                key
          end;
          match floor_as_of t ki ~at with
          | Some floor -> ignore (check_value t ~what:"scan" ki ~floor v)
          | None -> ())
    items;
  if !n > len then fail t "scan %s: %d items for a limit of %d" start !n len
  else if !n < len && !pos < t.records then
    fail t "scan %s: %d items but loaded key %s remains" start !n
      t.keys.(t.sorted.(!pos))

let begin_scan t = tick t

(* Final sweep: after the measured phase every put has completed, so a
   get must return a put no older than the key's floor. Returns the put
   id read (the durable state the post-crash sweep must find). *)
let sweep_value t k r =
  match r with
  | Some v -> check_value t ~what:"sweep" k ~floor:t.floor.(k) v
  | None ->
      if t.exists_at.(k) <> incomplete then fail t "sweep %s: missing" t.keys.(k);
      -1

(* Post-crash sweep: recovery must restore exactly the state the final
   sweep read. *)
let durable t k ~expect r =
  let got =
    match r with
    | None -> -1
    | Some v -> (
        match Inputs.unstamp v with Some (vk, id) when vk = k -> id | _ -> -2)
  in
  if got <> expect then
    fail t "after recovery %s: put %d, expected put %d" t.keys.(k) got expect
