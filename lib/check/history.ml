open Prism_sim

type call =
  | Put of string * bytes
  | Get of string
  | Delete of string
  | Scan of string * int
  | Batch of (string * bytes) list

type outcome =
  | Ok_unit
  | Got of bytes option
  | Existed of bool
  | Items of (string * bytes) list
  | Committed of bool
  | Pending

type event = {
  op : int;
  tid : int;
  call : call;
  outcome : outcome;
  inv : int;
  resp : int;
  inv_time : float;
  resp_time : float;
}

type t = {
  mutable events_rev : event list;
  open_ops : (int, int * call * int * float) Hashtbl.t;
      (* invocations still running: op -> (tid, call, inv, inv_time) *)
  mutable stamp : int;
  mutable count : int;
  mutable enabled : bool;
}

let create () =
  {
    events_rev = [];
    open_ops = Hashtbl.create 8;
    stamp = 0;
    count = 0;
    enabled = true;
  }

let set_enabled t on = t.enabled <- on

let tick t =
  let s = t.stamp in
  t.stamp <- s + 1;
  s

(* ---- scheduling labels ----

   A label packs (key id, tid, kind) into one int so the engine can
   carry it on every pending event of an operation. Key identity is an
   interned index into a process-global table: an id is assigned the
   first time a key is seen and never changes, so labels are stable
   across the many runs of one exploration (DPOR caches labels per event
   seq across runs) and the table can answer order queries — a scan's
   label carries its start key, and [conflicting] compares actual key
   strings to decide whether a write falls inside the scanned range.
   Kind 0 is reserved for "unlabelled". *)

let kind_read = 1

let kind_write = 2

let kind_scan = 3

let max_keys = 1 lsl 22

(* The interning tables are process-global. Numbering is global rather
   than per history: labels compare key {e ids} for equality and the scan
   range check compares key {e strings} (see [conflicting]), so the
   numbering order never reaches any output. A DPOR walk that runs on
   fleet worker processes forks them after its root run, which has
   interned every workload key; so a label made in one process means the
   same keys in every other. *)

let key_ids : (string, int) Hashtbl.t = Hashtbl.create 1024

let key_names = ref (Array.make 1024 "")

let n_keys = ref 0

let key_id key =
  match Hashtbl.find_opt key_ids key with
  | Some i -> i
  | None ->
      let i = !n_keys in
      if i >= max_keys then
        failwith "History: key-label space exhausted (2^22 distinct keys)";
      if i >= Array.length !key_names then begin
        let bigger = Array.make (2 * Array.length !key_names) "" in
        Array.blit !key_names 0 bigger 0 i;
        key_names := bigger
      end;
      !key_names.(i) <- key;
      Hashtbl.add key_ids key i;
      n_keys := i + 1;
      i

let key_of_id i = !key_names.(i)

(* Layout: bits 0-1 kind, bits 2-12 tid+1 (11 bits), bits 13-34 key id,
   bit 35 multi-key batch. The tid field holds tid+1 so an all-zero label
   never aliases a real operation; tids beyond the field width fail
   loudly instead of silently colliding into a shared conflict class. *)

let max_tid = 0x7FF - 1 (* tid+1 must fit in 11 bits *)

let batch_bit = 1 lsl 35

let op_label ~tid call =
  if tid < 0 || tid > max_tid then
    invalid_arg
      (Printf.sprintf "History.op_label: tid %d outside label range [0, %d]"
         tid max_tid);
  let kind, keyh =
    match call with
    | Put (k, _) -> (kind_write, key_id k)
    | Delete k -> (kind_write, key_id k)
    | Get k -> (kind_read, key_id k)
    | Scan (from, _) -> (kind_scan, key_id from)
    | Batch _ -> (kind_write, 0)
  in
  (match call with Batch _ -> batch_bit | _ -> 0)
  lor (keyh lsl 13)
  lor ((tid + 1) lsl 2)
  lor kind

let label_kind l = l land 3

let label_key l = (l lsr 13) land (max_keys - 1)

let conflicting a b =
  if a = 0 || b = 0 then true (* unlabelled: assume the worst *)
  else if a land batch_bit <> 0 || b land batch_bit <> 0 then
    (* A batch touches several keys across shards; its label cannot name
       them all, so it conservatively conflicts with every operation.
       Sound (DPOR explores a superset of necessary interleavings), and
       batches are rare in checker workloads, so the lost pruning is
       contained. *)
    true
  else begin
    let ka = label_kind a and kb = label_kind b in
    (* A scan ranges over keys at or above its start key, so it conflicts
       exactly with writes that could fall inside that range; writes
       strictly below the start key, reads, and other scans commute. The
       upper end of the range is only known once the scan returns, so
       the lower bound is the sound refinement available at labeling
       time. *)
    if ka = kind_scan then
      kb = kind_write
      && String.compare (key_of_id (label_key b)) (key_of_id (label_key a))
         >= 0
    else if kb = kind_scan then
      ka = kind_write
      && String.compare (key_of_id (label_key a)) (key_of_id (label_key b))
         >= 0
    else (ka = kind_write || kb = kind_write) && label_key a = label_key b
  end

let record t ~tid call run =
  if not t.enabled then run ()
  else begin
    let engine = Engine.current () in
    let op = t.count in
    t.count <- op + 1;
    let saved = Engine.annotation engine in
    Engine.annotate engine (op_label ~tid call);
    let inv = tick t in
    let inv_time = Engine.now engine in
    Hashtbl.add t.open_ops op (tid, call, inv, inv_time);
    let outcome =
      try run ()
      with e ->
        (* A crash injection unwinding through the operation must not
           leak the op's label onto whatever the interrupted context runs
           next. The op stays open: [cut] closes it as pending. *)
        let bt = Printexc.get_raw_backtrace () in
        Engine.annotate engine saved;
        Printexc.raise_with_backtrace e bt
    in
    let resp = tick t in
    let resp_time = Engine.now engine in
    Engine.annotate engine saved;
    Hashtbl.remove t.open_ops op;
    t.events_rev <-
      { op; tid; call; outcome; inv; resp; inv_time; resp_time }
      :: t.events_rev;
    outcome
  end

let cut t =
  let resp = tick t in
  let resp_time = Engine.now (Engine.current ()) in
  Hashtbl.iter
    (fun op (tid, call, inv, inv_time) ->
      t.events_rev <-
        { op; tid; call; outcome = Pending; inv; resp; inv_time; resp_time }
        :: t.events_rev)
    t.open_ops;
  Hashtbl.reset t.open_ops

let unwrap_unit = function
  | Ok_unit -> ()
  | Got _ | Existed _ | Items _ | Committed _ | Pending -> assert false

let unwrap_got = function
  | Got v -> v
  | Ok_unit | Existed _ | Items _ | Committed _ | Pending -> assert false

let unwrap_existed = function
  | Existed e -> e
  | Ok_unit | Got _ | Items _ | Committed _ | Pending -> assert false

let unwrap_items = function
  | Items l -> l
  | Ok_unit | Got _ | Existed _ | Committed _ | Pending -> assert false

let unwrap_committed = function
  | Committed c -> c
  | Ok_unit | Got _ | Existed _ | Items _ | Pending -> assert false

let wrap t (kv : Prism_harness.Kv.t) =
  {
    kv with
    Prism_harness.Kv.put =
      (fun ~tid key value ->
        unwrap_unit
          (record t ~tid (Put (key, value)) (fun () ->
               kv.Prism_harness.Kv.put ~tid key value;
               Ok_unit)));
    get =
      (fun ~tid key ->
        unwrap_got
          (record t ~tid (Get key) (fun () ->
               Got (kv.Prism_harness.Kv.get ~tid key))));
    delete =
      (fun ~tid key ->
        unwrap_existed
          (record t ~tid (Delete key) (fun () ->
               Existed (kv.Prism_harness.Kv.delete ~tid key))));
    scan =
      (fun ~tid key count ->
        unwrap_items
          (record t ~tid (Scan (key, count)) (fun () ->
               Items (kv.Prism_harness.Kv.scan ~tid key count))));
  }

let record_batch t ~tid writes run =
  unwrap_committed
    (record t ~tid (Batch writes) (fun () -> Committed (run ())))

let events t =
  let a = Array.of_list (List.rev t.events_rev) in
  Array.sort (fun a b -> compare a.inv b.inv) a;
  a

(* Reports name a value by its YCSB version stamp ([v37]), so two
   writes of one key tell apart; a value without one shows its size. *)
let pp_value fmt v =
  match Prism_workload.Ycsb.version_of v with
  | Some n -> Format.fprintf fmt "v%d" n
  | None -> Format.fprintf fmt "(%d B)" (Bytes.length v)

let pp_call fmt = function
  | Put (k, v) -> Format.fprintf fmt "put %s %a" k pp_value v
  | Get k -> Format.fprintf fmt "get %s" k
  | Delete k -> Format.fprintf fmt "delete %s" k
  | Scan (k, n) -> Format.fprintf fmt "scan %s +%d" k n
  | Batch ws ->
      Format.fprintf fmt "batch {%a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
           (fun fmt (k, v) -> Format.fprintf fmt "%s %a" k pp_value v))
        ws

let pp_outcome fmt = function
  | Ok_unit -> Format.fprintf fmt "ok"
  | Got None -> Format.fprintf fmt "-> None"
  | Got (Some v) -> Format.fprintf fmt "-> Some %a" pp_value v
  | Existed e -> Format.fprintf fmt "-> existed:%b" e
  | Items l -> Format.fprintf fmt "-> %d items" (List.length l)
  | Committed c -> Format.fprintf fmt "-> committed:%b" c
  | Pending -> Format.fprintf fmt "-> pending"

let pp_event fmt e =
  Format.fprintf fmt "[%d] tid%d %a %a (inv %d@@%.6fs, resp %d@@%.6fs)" e.op
    e.tid pp_call e.call pp_outcome e.outcome e.inv e.inv_time e.resp
    e.resp_time
