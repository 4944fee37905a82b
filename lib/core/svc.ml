open Prism_sim
open Prism_device

type member = {
  hsit_id : int;
  key : string;
  value : bytes;
  cached_from : int;
}

type lru = No_list | Inactive | Active

type state = Free | Live | Retired

type entry = {
  mutable e_hsit : int;
  mutable e_key : string;
  mutable e_value : bytes;
  mutable e_from : int; (* clean HSIT word the value was cached from *)
  mutable e_state : state;
  mutable e_lru : lru;
  mutable prev : int;
  mutable next : int;
  mutable cprev : int;
  mutable cnext : int;
  mutable referenced : bool;
}

type dlist = {
  mutable head : int;
  mutable tail : int;
  mutable bytes : int;
  mutable count : int;
}

(* Manager messages are immediates: an entry index and its kind in the
   low two bits. *)
let admit_msg = 0

let touch_msg = 1

let drop_msg = 2

let msg kind idx = (idx lsl 2) lor kind

type t = {
  engine : Engine.t;
  capacity : int;
  cost : Cost.t;
  delays : float array;
      (* [| cache_op; atomic_op; the copy being charged |], handed to the
         engine unboxed *)
  epoch : Epoch.t;
  hsit : Hsit.t;
  mutable entries : entry array;
  mutable nalloc : int;
  mutable free : int array; (* stack of recycled indices *)
  mutable nfree : int;
  mutable release : int -> unit; (* [release_entry t], built once *)
  inactive : dlist;
  active : dlist;
  mailbox : int Sync.Mailbox.t;
  mutable pending_bytes : int;
  mutable reorganize : (member array -> unit) option;
  evictions : Metric.Counter.t;
  reorgs : Metric.Counter.t;
  mutable manager_running : bool;
}

let entry_overhead = 64

let fresh_entry () =
  {
    e_hsit = -1;
    e_key = "";
    e_value = Bytes.empty;
    e_from = Location.nowhere_word;
    e_state = Free;
    e_lru = No_list;
    prev = -1;
    next = -1;
    cprev = -1;
    cnext = -1;
    referenced = false;
  }

let set_reorganize t f = t.reorganize <- Some f

let entry t idx = t.entries.(idx)

let entry_bytes e = entry_overhead + String.length e.e_key + Bytes.length e.e_value

(* ---- intrusive LRU lists ---- *)

let list_of t = function
  | Inactive -> t.inactive
  | Active -> t.active
  | No_list -> invalid_arg "Svc: entry not on a list"

let push_front t which idx =
  let l = list_of t which in
  let e = entry t idx in
  assert (e.e_lru = No_list);
  e.e_lru <- which;
  e.prev <- -1;
  e.next <- l.head;
  if l.head >= 0 then (entry t l.head).prev <- idx;
  l.head <- idx;
  if l.tail < 0 then l.tail <- idx;
  l.bytes <- l.bytes + entry_bytes e;
  l.count <- l.count + 1

let unlink t idx =
  let e = entry t idx in
  match e.e_lru with
  | No_list -> ()
  | which ->
      let l = list_of t which in
      if e.prev >= 0 then (entry t e.prev).next <- e.next else l.head <- e.next;
      if e.next >= 0 then (entry t e.next).prev <- e.prev else l.tail <- e.prev;
      e.prev <- -1;
      e.next <- -1;
      e.e_lru <- No_list;
      l.bytes <- l.bytes - entry_bytes e;
      l.count <- l.count - 1

(* ---- scan chains ---- *)

let chain_unlink t idx =
  let e = entry t idx in
  if e.cprev >= 0 then (entry t e.cprev).cnext <- e.cnext;
  if e.cnext >= 0 then (entry t e.cnext).cprev <- e.cprev;
  e.cprev <- -1;
  e.cnext <- -1

(* The first member of the chain through [idx]. *)
let rec chain_head t idx =
  let p = (entry t idx).cprev in
  if p >= 0 then chain_head t p else idx

(* Link the live entries among [idxs.(0 .. n - 1)], in that order, into
   one chain. *)
let link_chain t idxs n =
  let prev = ref (-1) in
  for k = 0 to n - 1 do
    let i = idxs.(k) in
    if (entry t i).e_state = Live then begin
      chain_unlink t i;
      if !prev >= 0 then begin
        (entry t !prev).cnext <- i;
        (entry t i).cprev <- !prev
      end;
      prev := i
    end
  done

(* ---- allocation ---- *)

let grow t =
  let n = Array.length t.entries in
  let entries = Array.init (n * 2) (fun i -> if i < n then t.entries.(i) else fresh_entry ()) in
  t.entries <- entries

let push_free t idx =
  if t.nfree = Array.length t.free then begin
    let bigger = Array.make (max 64 (2 * t.nfree)) 0 in
    Array.blit t.free 0 bigger 0 t.nfree;
    t.free <- bigger
  end;
  t.free.(t.nfree) <- idx;
  t.nfree <- t.nfree + 1

let alloc t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    if t.nalloc = Array.length t.entries then grow t;
    let idx = t.nalloc in
    t.nalloc <- t.nalloc + 1;
    idx
  end

let used_bytes t = t.pending_bytes + t.inactive.bytes + t.active.bytes

let live_entries t = t.inactive.count + t.active.count

let evictions t = Metric.Counter.value t.evictions

let reorganizations t = Metric.Counter.value t.reorgs

let register_stats t stats ~prefix =
  Stats.register_counter stats (prefix ^ ".evictions") t.evictions;
  Stats.register_counter stats (prefix ^ ".reorgs") t.reorgs;
  Stats.gauge_int stats (prefix ^ ".used_bytes") (fun () -> used_bytes t);
  Stats.gauge_int stats (prefix ^ ".entries") (fun () -> live_entries t)

(* ---- read path ---- *)

(* A miss is the empty value: stored values are never empty. *)
let lookup_value t ~idx ~hsit_id =
  Engine.delay_cell t.delays 0;
  if idx < 0 || idx >= t.nalloc then Bytes.empty
  else begin
    let e = entry t idx in
    if e.e_state <> Live || e.e_hsit <> hsit_id then Bytes.empty
    else begin
      t.delays.(2) <-
        float_of_int (Bytes.length e.e_value) *. t.cost.Cost.memcpy_per_byte;
      Engine.delay_cell t.delays 2;
      if not e.referenced then begin
        e.referenced <- true;
        Sync.Mailbox.send t.mailbox (msg touch_msg idx)
      end;
      e.e_value
    end
  end

let lookup t ~idx ~hsit_id =
  let v = lookup_value t ~idx ~hsit_id in
  if Bytes.length v = 0 then None else Some v

(* ---- write/admission path ---- *)

let admit_index t ~hsit_id ~key ~value ~from_ =
  (* Hard cap: refuse admissions when eviction is far behind. *)
  if used_bytes t > t.capacity * 2 then -1
  else begin
    Engine.delay_cell t.delays 0;
    let idx = alloc t in
    let e = entry t idx in
    e.e_hsit <- hsit_id;
    e.e_key <- key;
    e.e_value <- value;
    e.e_from <- from_;
    e.e_state <- Live;
    e.e_lru <- No_list;
    e.referenced <- false;
    Engine.delay_cell t.delays 1;
    if Hsit.cas_svc_index t.hsit hsit_id ~expect:(-1) idx then begin
      t.pending_bytes <- t.pending_bytes + entry_bytes e;
      Sync.Mailbox.send t.mailbox (msg admit_msg idx);
      idx
    end
    else begin
      (* Someone else cached it first; roll back the never-published
         entry. *)
      e.e_state <- Free;
      e.e_value <- Bytes.empty;
      push_free t idx;
      -1
    end
  end

let admit t ~hsit_id ~key ~value ~cached_from =
  let idx =
    admit_index t ~hsit_id ~key ~value
      ~from_:(Location.encode cached_from ~dirty:false)
  in
  if idx < 0 then None else Some idx

(* Free a retired entry once no reader can hold it (see [retire_entry]). *)
let release_entry t idx =
  let e = entry t idx in
  e.e_state <- Free;
  e.e_value <- Bytes.empty;
  e.e_key <- "";
  e.e_hsit <- -1;
  push_free t idx

let retire_entry t idx =
  (entry t idx).e_state <- Retired;
  Epoch.retire t.epoch t.release idx

let create engine ~capacity ~cost ~epoch ~hsit =
  if capacity <= 0 then invalid_arg "Svc.create: capacity <= 0";
  let t =
    {
      engine;
      capacity;
      cost;
      delays = [| cost.Cost.cache_op; cost.Cost.atomic_op; 0.0 |];
      epoch;
      hsit;
      entries = Array.init 64 (fun _ -> fresh_entry ());
      nalloc = 0;
      free = [||];
      nfree = 0;
      release = ignore;
      inactive = { head = -1; tail = -1; bytes = 0; count = 0 };
      active = { head = -1; tail = -1; bytes = 0; count = 0 };
      mailbox = Sync.Mailbox.create ();
      pending_bytes = 0;
      reorganize = None;
      evictions = Metric.Counter.create ();
      reorgs = Metric.Counter.create ();
      manager_running = false;
    }
  in
  t.release <- release_entry t;
  t

let invalidate t ~hsit_id =
  let idx = Hsit.svc_index t.hsit hsit_id in
  if idx >= 0 then begin
    let e = entry t idx in
    if e.e_state = Live && e.e_hsit = hsit_id then begin
      Engine.delay_cell t.delays 1;
      if Hsit.cas_svc_index t.hsit hsit_id ~expect:idx (-1) then
        Sync.Mailbox.send t.mailbox (msg drop_msg idx)
    end
  end

(* ---- manager ---- *)

let in_pending e = e.e_state = Live && e.e_lru = No_list

(* The live members of the chain starting at [head], in chain order.
   Their values go to the write-back as they are: an entry's value is
   never mutated, by the cache or by the readers [lookup] shares it with. *)
let live_members t head =
  let rec count i n =
    if i < 0 then n
    else count (entry t i).cnext (if (entry t i).e_state = Live then n + 1 else n)
  in
  let members =
    Array.make (count head 0)
      { hsit_id = -1; key = ""; value = Bytes.empty; cached_from = 0 }
  in
  let rec fill i k =
    if i >= 0 then begin
      let m = entry t i in
      if m.e_state = Live then begin
        members.(k) <-
          { hsit_id = m.e_hsit; key = m.e_key; value = m.e_value;
            cached_from = m.e_from };
        fill m.cnext (k + 1)
      end
      else fill m.cnext k
    end
  in
  fill head 0;
  members

let rec dissolve_chain t i =
  if i >= 0 then begin
    let next = (entry t i).cnext in
    chain_unlink t i;
    dissolve_chain t next
  end

let evict_entry t idx =
  let e = entry t idx in
  Metric.Counter.incr t.evictions;
  (* Sort-on-evict write-back of the whole scan chain (§4.4). *)
  (match t.reorganize with
  | Some reorganize when e.cprev >= 0 || e.cnext >= 0 ->
      let head = chain_head t idx in
      let members = live_members t head in
      dissolve_chain t head;
      if Array.length members >= 2 then begin
        Metric.Counter.incr t.reorgs;
        Array.stable_sort (fun a b -> String.compare a.key b.key) members;
        reorganize members
      end
  | Some _ | None -> chain_unlink t idx);
  (* Logical deletion: disconnect from HSIT first (§4.4). *)
  ignore (Hsit.cas_svc_index t.hsit e.e_hsit ~expect:idx (-1) : bool);
  unlink t idx;
  retire_entry t idx

let demote_one t =
  let idx = t.active.tail in
  if idx >= 0 then begin
    unlink t idx;
    push_front t Inactive idx
  end

let enforce t =
  (* Keep the active list from starving the inactive list. *)
  while t.active.bytes > t.capacity / 2 && t.active.tail >= 0 do
    demote_one t
  done;
  let progress = ref true in
  while used_bytes t > t.capacity && !progress do
    if t.inactive.tail >= 0 then evict_entry t t.inactive.tail
    else if t.active.tail >= 0 then demote_one t
    else progress := false
  done

let handle t m =
  Engine.delay_cell t.delays 0;
  let idx = m asr 2 and kind = m land 3 in
  (if idx >= 0 && idx < Array.length t.entries then
     let e = entry t idx in
     if kind = admit_msg then begin
       if in_pending e then begin
         t.pending_bytes <- t.pending_bytes - entry_bytes e;
         push_front t Inactive idx
       end
     end
     else if kind = touch_msg then begin
       if e.e_state = Live then begin
         e.referenced <- false;
         match e.e_lru with
         | Inactive ->
             unlink t idx;
             push_front t Active idx
         | Active ->
             unlink t idx;
             push_front t Active idx
         | No_list -> ()
       end
     end
     else if e.e_state = Live then begin
       if in_pending e then t.pending_bytes <- t.pending_bytes - entry_bytes e;
       chain_unlink t idx;
       unlink t idx;
       retire_entry t idx
     end);
  enforce t

let start_manager t =
  if t.manager_running then invalid_arg "Svc.start_manager: already running";
  t.manager_running <- true;
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        handle t (Sync.Mailbox.recv t.mailbox);
        loop ()
      in
      loop ())

let clear t =
  let rec drain () =
    match Sync.Mailbox.try_recv t.mailbox with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  for i = 0 to t.nalloc - 1 do
    let e = t.entries.(i) in
    e.e_state <- Free;
    e.e_value <- Bytes.empty;
    e.e_key <- "";
    e.e_lru <- No_list;
    e.prev <- -1;
    e.next <- -1;
    e.cprev <- -1;
    e.cnext <- -1
  done;
  t.nfree <- 0;
  t.nalloc <- 0;
  t.pending_bytes <- 0;
  t.inactive.head <- -1;
  t.inactive.tail <- -1;
  t.inactive.bytes <- 0;
  t.inactive.count <- 0;
  t.active.head <- -1;
  t.active.tail <- -1;
  t.active.bytes <- 0;
  t.active.count <- 0
