(* Structure-of-arrays 4-ary min-heap keyed by (time, seq).

   The simulator executes millions of events per run, so the event queue's
   per-entry cost decides the engine's throughput. Two layout decisions
   drive the design:

   - Entries are parallel channels (an unboxed [float array] of times plus
     [int array]s) instead of an array of records, so sifting moves machine
     words without allocating.

   - Payloads (and their aux ints) never move during a sift. Each entry
     owns a stable slot in [values]/[auxs]; the heap permutes only the
     [slots : int array] channel. A generic ['a array] store compiles to
     a [caml_modify] write barrier, which costs more than every comparison
     in the sift combined — with the indirection, the barrier is paid once
     per push instead of once per level, and the sift itself touches only
     unboxed arrays.

   The tree is 4-ary (children of [i] are [4i+1 .. 4i+4]): half the depth
   of a binary heap means half the channel moves per sift, and the wider
   min-child scan stays within one cache line per node. (time, seq) keys
   are totally ordered in the engine (seq is a unique stamp), so the pop
   sequence is independent of arity and internal layout — rewriting the
   sift strategy cannot perturb event order.

   The whole API after [create] ([advance_if_due]/[min_aux]/[pop_unsafe]
   and the tie-set calls) never allocates beyond capacity growth. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array; (* heap position -> index into [values] *)
  mutable values : 'a array; (* slot -> payload; stable across sifts *)
  mutable auxs : int array; (* slot -> aux; stable across sifts *)
  mutable free : int array; (* stack of recycled slots *)
  mutable n_free : int;
  mutable size : int;
  mutable ties : int array;
      (* heap positions of the last gathered tie set, in seq order; grown
         on demand, so a heap that never gathers never allocates it *)
}

(* Placeholder for empty payload slots. An immediate, so [Array.make] never
   builds a flat float array even at ['a = float], keeping the generic
   reads/writes below representation-correct for every ['a]. *)
let dummy : 'a = Obj.magic 0

(* Invariant: [times.(0) = infinity] whenever the heap is empty (capacity
   is never 0). This lets [advance_alone] compare against the min time
   without a size check. *)
let initial_capacity = 16

let create () =
  let times = Array.make initial_capacity 0.0 in
  times.(0) <- infinity;
  {
    times;
    seqs = Array.make initial_capacity 0;
    auxs = Array.make initial_capacity 0;
    slots = Array.make initial_capacity 0;
    values = Array.make initial_capacity dummy;
    free = Array.make initial_capacity 0;
    n_free = 0;
    size = 0;
    ties = [||];
  }

let length t = t.size

let[@inline] is_empty t = t.size = 0

let[@inline] min_aux t =
  if t.size = 0 then 0
  else Array.unsafe_get t.auxs (Array.unsafe_get t.slots 0)

let grow t =
  let capacity = Array.length t.times in
  let new_capacity = capacity * 2 in
  let times = Array.make new_capacity 0.0 in
  let seqs = Array.make new_capacity 0 in
  let auxs = Array.make new_capacity 0 in
  let slots = Array.make new_capacity 0 in
  let values = Array.make new_capacity dummy in
  let free = Array.make new_capacity 0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.slots 0 slots 0 t.size;
  Array.blit t.values 0 values 0 (Array.length t.values);
  Array.blit t.auxs 0 auxs 0 (Array.length t.auxs);
  Array.blit t.free 0 free 0 t.n_free;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.values <- values;
  t.auxs <- auxs;
  t.free <- free

let arity = 4

(* Hole-sift the entry freshly written at [i0] toward the root. Out of
   line because Closure-mode ocamlopt never inlines a function containing
   a loop — but it takes no float argument: the key is re-read from the
   unboxed [times] channel, so the caller's [time] never has to cross a
   call boundary (which would box it). *)
let sift_up t i0 =
  let times = t.times and seqs = t.seqs in
  let slots = t.slots in
  let time = Array.unsafe_get times i0 in
  let seq = Array.unsafe_get seqs i0 in
  let slot = Array.unsafe_get slots i0 in
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / arity in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* Loop-free push prologue, inlinable even without flambda: the [time]
   float flows straight into an unboxed [float array] store, so an
   inlined call site pays no boxing at all. The sift itself runs out of
   line on the flat channels (see [sift_up]). *)
let[@inline] push_aux t ~time ~seq ~aux value =
  if t.size = Array.length t.times then grow t;
  (* Slot bookkeeping: live slots always number [size], so when the free
     stack is empty, slot [size] is untouched and fresh. *)
  let slot =
    if t.n_free > 0 then begin
      let nf = t.n_free - 1 in
      t.n_free <- nf;
      Array.unsafe_get t.free nf
    end
    else t.size
  in
  (* Skip the store, and its write barrier, when the slot already holds
     [value]: the free stack is LIFO and [pop_unsafe] leaves payloads in
     place, so a parked process that wakes and parks again usually gets
     back the slot holding its own wake-up closure. *)
  if Array.unsafe_get t.values slot != value then
    Array.unsafe_set t.values slot value;
  Array.unsafe_set t.auxs slot aux;
  let i = t.size in
  t.size <- i + 1;
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.slots i slot;
  if i > 0 then sift_up t i

let[@inline] push t ~time ~seq ?(aux = 0) value =
  push_aux t ~time ~seq ~aux value

(* Engine dispatch protocol. The engine's clock rides a caller-owned
   [float array] — cell 0 is "now", cell 1 the run limit — so event times
   never cross the module boundary as bare floats. That matters because
   dune's dev profile compiles with [-opaque], which disables cross-module
   inlining entirely: a float-returning min-time read and a [push ~time]
   would box two floats per dispatched event there, however aggressively the
   callees are annotated. *)

(* [advance_if_due t clock] : when the heap is nonempty and its min time
   is within [clock.(1)], write the min time into [clock.(0)] and return
   [true]; the caller then reads [min_aux] and pops. *)
let advance_if_due t clock =
  if t.size = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 in
    if time <= Array.unsafe_get clock 1 then begin
      Array.unsafe_set clock 0 time;
      true
    end
    else false
  end

(* [advance_alone t clock] : when [clock.(0) +. clock.(2)] is within
   [clock.(1)] and strictly before the min time (an empty heap reads
   [infinity] there), write it into [clock.(0)] and return [true]: an
   entry pushed at that time would be the next one popped, alone in its
   tie set, so the caller may skip the push and the pop. *)
let advance_alone t clock =
  let time = Array.unsafe_get clock 0 +. Array.unsafe_get clock 2 in
  if time <= Array.unsafe_get clock 1 && time < Array.unsafe_get t.times 0
  then begin
    Array.unsafe_set clock 0 time;
    true
  end
  else false

(* [push_after t ~clock ~after ~seq ~aux v] inserts at [clock.(0) +.
   after]. The addition happens on this side of the call boundary, so a
   scheduling site never boxes a freshly computed event time — its
   [after] argument is typically an already-boxed float it merely
   forwards (a closure capture). *)
let push_after t ~clock ~after ~seq ~aux value =
  assert (after >= 0.0);
  push_aux t ~time:(Array.unsafe_get clock 0 +. after) ~seq ~aux value

(* [push_until t ~clock ~cells ~i ~seq ~aux v] inserts at [clock.(0) +.
   (cells.(i) -. clock.(0))], where [push_after] would put the delay
   that reaches [cells.(i)]: a device's completion time, read from its
   own cell so that no scheduling site boxes it. *)
let push_until t ~clock ~cells ~i ~seq ~aux value =
  let now = Array.unsafe_get clock 0 in
  let after = Array.unsafe_get cells i -. now in
  assert (after >= 0.0);
  push_aux t ~time:(now +. after) ~seq ~aux value

(* [push_delay t ~clock ~seq ~aux v] inserts at [clock.(0) +. clock.(2)]:
   the engine's parking path, whose delay never exists as a boxed float
   at all. *)
let push_delay t ~clock ~seq ~aux value =
  let after = Array.unsafe_get clock 2 in
  assert (after >= 0.0);
  push_aux t ~time:(Array.unsafe_get clock 0 +. after) ~seq ~aux value

(* Remove the minimum entry and return its payload without allocating.
   Read the key first ([advance_if_due], [min_aux]) if it is needed. *)
let pop_unsafe t =
  let n = t.size - 1 in
  if n < 0 then invalid_arg "Heap.pop_unsafe: empty heap";
  let times = t.times and seqs = t.seqs in
  let slots = t.slots in
  let root_slot = Array.unsafe_get slots 0 in
  (* The popped payload is left in its slot rather than cleared: clearing
     a generic ['a array] cell is a [caml_modify] per pop, and the stale
     reference lives only until the slot is reused (the free stack is
     LIFO) — the same bounded retention the previous record-array layout
     had. [clear] drops the whole array. *)
  let root = Array.unsafe_get t.values root_slot in
  let nf = t.n_free in
  Array.unsafe_set t.free nf root_slot;
  t.n_free <- nf + 1;
  t.size <- n;
  if n = 0 then Array.unsafe_set times 0 infinity
  else begin
    (* Sift the displaced last entry down from the root as a hole. The
       min-child comparisons are written out inline: the non-flambda
       compiler does not reliably inline a comparison helper here, and an
       out-of-line call per child costs more than the whole sift. *)
    let time = Array.unsafe_get times n in
    let seq = Array.unsafe_get seqs n in
    let slot = Array.unsafe_get slots n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let first = (arity * !i) + 1 in
      if first >= n then continue := false
      else begin
        (* Smallest of the up-to-four children. *)
        let c = ref first in
        let ct = ref (Array.unsafe_get times first) in
        let last = if first + 3 < n then first + 3 else n - 1 in
        for j = first + 1 to last do
          let jt = Array.unsafe_get times j in
          if
            jt < !ct
            || (jt = !ct && Array.unsafe_get seqs j < Array.unsafe_get seqs !c)
          then begin
            c := j;
            ct := jt
          end
        done;
        let c = !c in
        let ct = !ct in
        if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end;
  root

(* Tie sets. The entries tied at the minimum time form a subtree that
   holds the root: a tied entry's parent is no later than it and no
   earlier than the root, so it is tied too. [gather_ties] walks that
   subtree breadth-first, using [ties] itself as the queue, then
   insertion-sorts the few positions by seq — so index 0 is always the
   root. Nothing moves until [remove_tie] takes one entry out. *)
let gather_ties t =
  let n = t.size in
  if n = 0 then 0
  else begin
    if Array.length t.ties < n then t.ties <- Array.make (Array.length t.times) 0;
    let ties = t.ties and times = t.times and seqs = t.seqs in
    let time = Array.unsafe_get times 0 in
    Array.unsafe_set ties 0 0;
    let count = ref 1 in
    let next = ref 0 in
    while !next < !count do
      let first = (arity * Array.unsafe_get ties !next) + 1 in
      incr next;
      for c = first to min (first + arity - 1) (n - 1) do
        if Array.unsafe_get times c = time then begin
          Array.unsafe_set ties !count c;
          incr count
        end
      done
    done;
    for k = 1 to !count - 1 do
      let p = Array.unsafe_get ties k in
      let s = Array.unsafe_get seqs p in
      let j = ref k in
      while !j > 0 && Array.unsafe_get seqs (Array.unsafe_get ties (!j - 1)) > s do
        Array.unsafe_set ties !j (Array.unsafe_get ties (!j - 1));
        decr j
      done;
      Array.unsafe_set ties !j p
    done;
    !count
  end

let tie_seq t k = t.seqs.(t.ties.(k))

let tie_aux t k = t.auxs.(t.slots.(t.ties.(k)))

(* Remove the [k]th gathered tie: move it to the root, shifting each
   ancestor on its path down one level (as if its key dropped below
   every other), then pop it. Each ancestor lands where its child was,
   above that child's children, so the heap order holds throughout, and
   the pop is the FIFO path's own [pop_unsafe]. *)
let remove_tie t k =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref t.ties.(k) in
  let time = Array.unsafe_get times !i in
  let seq = Array.unsafe_get seqs !i in
  let slot = Array.unsafe_get slots !i in
  while !i > 0 do
    let parent = (!i - 1) / arity in
    Array.unsafe_set times !i (Array.unsafe_get times parent);
    Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
    Array.unsafe_set slots !i (Array.unsafe_get slots parent);
    i := parent
  done;
  Array.unsafe_set times 0 time;
  Array.unsafe_set seqs 0 seq;
  Array.unsafe_set slots 0 slot;
  pop_unsafe t

let clear t =
  (* O(1) reset; dropping the backing arrays also releases the payloads'
     closures to the GC, which matters when a crash discards a large
     event backlog. Fresh minimal arrays keep the emptiness invariant
     ([times.(0) = infinity], capacity > 0). *)
  let times = Array.make initial_capacity 0.0 in
  times.(0) <- infinity;
  t.times <- times;
  t.seqs <- Array.make initial_capacity 0;
  t.slots <- Array.make initial_capacity 0;
  t.values <- Array.make initial_capacity dummy;
  t.auxs <- Array.make initial_capacity 0;
  t.free <- Array.make initial_capacity 0;
  t.n_free <- 0;
  t.size <- 0
