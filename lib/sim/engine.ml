type tie_break =
  | Fifo
  | Seeded of int64
  | Replay of int array
  | Guided of (t -> int -> int)

(* Resolved form of the policy: [Seeded] carries its RNG stream, [Replay]
   its cursor. *)
and policy =
  | P_fifo
  | P_seeded of Rng.t
  | P_replay of { choices : int array; mutable pos : int }
  | P_guided of (t -> int -> int)

(* Events are bare actions; the scheduling label each one inherited from
   the context that enqueued it (see [annotate]) rides the heap's aux
   channel, so the queue needs no per-event record at all. *)

and t = {
  clock : float array;
      (* [clock.(0)] is the simulation's "now", [clock.(1)] the active
         run's limit and [clock.(2)] the delay a parking process is about
         to sleep (see {!Heap.advance_alone}/{!Heap.push_delay}). A float
         array rather than [mutable now : float]: in a mixed record the
         float field is a boxed pointer, so every [t.now <- time] on the
         dispatch path would allocate; and handing the array to the heap
         keeps event times and delays from ever crossing the Heap module
         boundary as bare floats (which box under dune's dev profile,
         where [-opaque] disables cross-module inlining). *)
  mutable seq : int;
  mutable stopped : bool;
  mutable executed : int;
  events : (unit -> unit) Heap.t;
  mutable policy : policy;
  mutable choices : int array;
  mutable n_choices : int;
      (* tie-break decisions in order, [choices.(0 .. n_choices - 1)];
         recorded only under a non-FIFO policy so the hot path stays
         allocation-free *)
  mutable cur_label : int;
      (* label of the context currently executing; newly enqueued events
         inherit it, and it is restored from the event's aux channel
         whenever an event starts, so a label sticks to a continuation
         chain *)
  stats : Stats.t;
  spans : Span.t;
      (* telemetry: read-only with respect to the event queue, so it can
         never perturb the schedule *)
}

(* The payloads carry nothing a process's own handler can find by
   itself: [Delay]'s sleep rides [clock.(2)], so it is a constant
   constructor and performing it allocates nothing. *)
type _ Effect.t +=
  | Delay : unit Effect.t
  | Delay_behind : (unit -> unit) -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* The engine of the currently-running process. [run] sets it for the whole
   event loop (events only ever execute inside their own engine's loop), so
   [delay]/[suspend] can find their engine without every call site threading
   it explicitly — and without a save/restore per event. *)
let running : t option ref = ref None

let create () =
  {
    clock = [| 0.0; infinity; 0.0 |];
    seq = 0;
    stopped = false;
    executed = 0;
    events = Heap.create ();
    policy = P_fifo;
    choices = [||];
    n_choices = 0;
    cur_label = 0;
    stats = Stats.create ();
    spans = Span.create ();
  }

let set_tie_break t = function
  | Fifo -> t.policy <- P_fifo
  | Seeded seed -> t.policy <- P_seeded (Rng.create seed)
  | Replay choices -> t.policy <- P_replay { choices; pos = 0 }
  | Guided f -> t.policy <- P_guided f

let recorded_choices t = Array.sub t.choices 0 t.n_choices

let fold_choices t f init =
  let acc = ref init in
  for i = 0 to t.n_choices - 1 do
    acc := f !acc (Array.unsafe_get t.choices i)
  done;
  !acc

let tie_seq t k = Heap.tie_seq t.events k

let tie_label t k = Heap.tie_aux t.events k

let record_choice t c =
  let n = t.n_choices in
  if n = Array.length t.choices then begin
    let bigger = Array.make (max 64 (2 * n)) 0 in
    Array.blit t.choices 0 bigger 0 n;
    t.choices <- bigger
  end;
  t.choices.(n) <- c;
  t.n_choices <- n + 1

let[@inline] now t = Array.unsafe_get t.clock 0

(* Current time in integer nanoseconds. An [int] crosses module
   boundaries unboxed even under [-opaque] (dev profile), so latency
   middleware can timestamp every operation without allocating — a bare
   float return from [now] would box at every such call site. *)
let now_ns t = int_of_float ((Array.unsafe_get t.clock 0 *. 1e9) +. 0.5)

let[@inline] set_now t time = Array.unsafe_set t.clock 0 time

let annotate t label = t.cur_label <- label

let annotation t = t.cur_label

let enqueue ?label t ~at f =
  assert (at >= now t);
  let aux = match label with None -> t.cur_label | Some l -> l in
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push_aux t.events ~time:at ~seq ~aux f

(* Relative-time scheduling goes through [Heap.push_after]: the heap adds
   [after] to the clock cell on its side of the call boundary, so this
   path never boxes an event time — [after] is forwarded as the (already
   boxed) float the caller holds. *)
let schedule t ~after f =
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push_after t.events ~clock:t.clock ~after ~seq ~aux:t.cur_label f

(* A process's park state, built once by [spawn]: the slot its
   continuation waits in while it sleeps, and the wake-up closures every
   park reuses. Parking then allocates only the continuation the runtime
   captures, and stores one young pointer into this (usually old)
   block: [k]. The other per-park writes are immediates, or [behind],
   which holds a device's long-lived retire callback; nothing is reset on
   wake-up (a stale [k] is a spent continuation, a stale [behind] a
   callback its owner still holds).

   [waiting] is set while the process is suspended and cleared by the
   first resume, so a second call raises as long as the process has not
   suspended again. *)
type park = {
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable behind : unit -> unit;
  mutable waiting : bool;
  mutable label : int;
      (* the suspended context's label: its resume event keeps it even
         when resume is called from a differently-labelled completion *)
  mutable wake : unit -> unit;
  mutable wake_behind : unit -> unit;
  eng : t;
}

(* Placeholders before the first park. Immediates, so the GC never
   follows them; [k] is only continued after a park has stored a real
   continuation there, and [parking] is only read by a handler reply
   right after the handler has set it. *)
let no_continuation : (unit, unit) Effect.Deep.continuation = Obj.magic 0

(* The park of the process whose handler is replying. A handler sets it
   and returns one of the replies below, which the runtime applies at
   once to the captured continuation; so the replies are shared by every
   process, and spawning one builds none. [run] resets it on return, so
   it never keeps a finished run's engine reachable. *)
let no_park : park = Obj.magic 0

let parking = ref no_park

let reply_delay : ((unit, unit) Effect.Deep.continuation -> unit) option =
  Some
    (fun k ->
      let p = !parking in
      p.k <- k;
      let t = p.eng in
      let seq = t.seq in
      t.seq <- seq + 1;
      Heap.push_delay t.events ~clock:t.clock ~seq ~aux:t.cur_label p.wake)

(* [delay_behind]'s fused pair under FIFO: one entry at [f]'s seq, the
   wake-up's seq reserved right behind it and counted as its own
   event. *)
let reply_delay_behind :
    ((unit, unit) Effect.Deep.continuation -> unit) option =
  Some
    (fun k ->
      let p = !parking in
      p.k <- k;
      let t = p.eng in
      let seq = t.seq in
      t.seq <- seq + 2;
      Heap.push_delay t.events ~clock:t.clock ~seq ~aux:t.cur_label
        p.wake_behind)

let reply_suspend : ((unit, unit) Effect.Deep.continuation -> unit) option =
  Some (fun k -> !parking.k <- k)

(* The closures of one process share one block (a [let rec] of
   functions) with [p], [t] and [f] as its environment. *)
let spawn t ?at f =
  let open Effect.Deep in
  let p =
    {
      k = no_continuation;
      behind = ignore;
      waiting = false;
      label = 0;
      wake = ignore;
      wake_behind = ignore;
      eng = t;
    }
  in
  let rec wake () = continue p.k ()
  and wake_behind () =
    p.behind ();
    t.executed <- t.executed + 1;
    continue p.k ()
  and resume () =
    if not p.waiting then invalid_arg "Engine: resume called twice";
    p.waiting <- false;
    let seq = t.seq in
    t.seq <- seq + 1;
    Heap.push_after t.events ~clock:t.clock ~after:0.0 ~seq ~aux:p.label wake
  and effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Delay ->
        parking := p;
        reply_delay
    | Delay_behind f ->
        (* Usually the same device's [retire] as last time: skip the
           write barrier then. *)
        if p.behind != f then p.behind <- f;
        parking := p;
        reply_delay_behind
    | Suspend register -> (
        (* [register] may call [resume] at once: that only queues [wake],
           which runs after the reply has stored the continuation. If
           [register] raises, the reply still stores it before
           re-raising, so a [wake] it queued can run. *)
        p.waiting <- true;
        p.label <- t.cur_label;
        match register resume with
        | () ->
            parking := p;
            reply_suspend
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Some
              (fun k ->
                p.k <- k;
                Printexc.raise_with_backtrace e bt))
    | _ -> None
  and start () = match_with f () { retc = Fun.id; exnc = raise; effc } in
  p.wake <- wake;
  p.wake_behind <- wake_behind;
  match at with
  | None ->
      let seq = t.seq in
      t.seq <- seq + 1;
      Heap.push_after t.events ~clock:t.clock ~after:0.0 ~seq
        ~aux:t.cur_label start
  | Some at -> enqueue t ~at start

(* Pop one event of the tie set at the minimum time under the active
   non-FIFO policy, make its label current and return its action. The
   tie set (all events at the minimum time, in seq order) is gathered in
   place, one member is chosen — uniformly from the seeded stream, by the
   recorded decision, or by the guided callback, which reads the members
   through [tie_seq]/[tie_label] — and only that member
   leaves the heap; the rest keep their place, seq and label. Decisions
   are recorded only for tie sets larger than one, so a replay consumes
   them at exactly the positions the recording produced them. *)
let pop_tie_set t =
  let h = t.events in
  let n = Heap.gather_ties h in
  let choice =
    if n = 1 then 0
    else begin
      let c =
        match t.policy with
        | P_fifo -> 0
        | P_seeded rng -> Rng.int rng n
        | P_replay r ->
            let c =
              if r.pos < Array.length r.choices then r.choices.(r.pos) else 0
            in
            r.pos <- r.pos + 1;
            if c < 0 || c >= n then 0 else c
        | P_guided f ->
            let c = f t n in
            if c < 0 || c >= n then
              invalid_arg "Engine: guided tie-break chose out of range";
            c
      in
      record_choice t c;
      c
    end
  in
  t.cur_label <- Heap.tie_aux h choice;
  Heap.remove_tie h choice

let run ?(until = infinity) t =
  t.stopped <- false;
  Array.unsafe_set t.clock 1 until;
  let saved = !running in
  running := Some t;
  Fun.protect
    ~finally:(fun () ->
      running := saved;
      parking := no_park)
    (fun () ->
      let continue_running = ref true in
      while !continue_running && not t.stopped do
        (* [advance_if_due] writes the min event time into the clock cell
           when it is within [until]; no float crosses the Heap boundary
           on this path, keeping FIFO dispatch allocation-free. *)
        if Heap.advance_if_due t.events t.clock then begin
          match t.policy with
          | P_fifo ->
              (* The hot path: a plain heap pop, no tie-set machinery,
                 no allocation. *)
              let label = Heap.min_aux t.events in
              let action = Heap.pop_unsafe t.events in
              t.executed <- t.executed + 1;
              t.cur_label <- label;
              action ()
          | _ ->
              let action = pop_tie_set t in
              t.executed <- t.executed + 1;
              action ()
        end
        else begin
          (* Empty, or the next event lies beyond [until] — leave it
             queued (a later [run] can resume it) and advance the clock
             to the horizon only if something remains. *)
          if not (Heap.is_empty t.events) then set_now t until;
          continue_running := false
        end
      done);
  t.cur_label <- 0;
  now t

let stop t = t.stopped <- true

let clear_pending t = Heap.clear t.events

let current_engine () =
  match !running with
  | Some t -> t
  | None -> invalid_arg "Engine: not inside a simulation process"

(* When the delayed continuation would be the very next event -- strictly
   earlier than everything queued, within [until], and the run not
   stopped -- advance the clock in place instead of capturing it and
   round-tripping through the heap. [seq] and [executed] move exactly as
   the round trip would move them; the label is already the current one;
   and a strictly earliest event forms no tie set, so no policy is
   consulted and no choice recorded. [sleep] is [delay] with its positive
   delay already in [clock.(2)], where the heap and the handler read it;
   [delay] repeats its body rather than pay a call on the hot path. *)
let sleep t =
  if (not t.stopped) && Heap.advance_alone t.events t.clock then begin
    t.seq <- t.seq + 1;
    t.executed <- t.executed + 1
  end
  else Effect.perform Delay

let delay d =
  if d < 0.0 then invalid_arg "Engine.delay: negative delay";
  if d = 0.0 then ()
  else begin
    let t = current_engine () in
    Array.unsafe_set t.clock 2 d;
    if (not t.stopped) && Heap.advance_alone t.events t.clock then begin
      t.seq <- t.seq + 1;
      t.executed <- t.executed + 1
    end
    else Effect.perform Delay
  end

(* Under FIFO, [schedule ~after:d f; delay d] queues two entries with
   adjacent seqs at one instant, so nothing can run between them: [f]
   may run as the first half of the wake-up. The pair then costs one
   heap entry, or none when the wake-up is alone at the head of the
   queue (as in [delay]); [seq] and [executed] move by two either way.
   Other policies see both entries in their tie sets, so they keep the
   queued pair. [sleep_behind] takes the delay from [clock.(2)]. *)
let sleep_behind t f =
  let d = Array.unsafe_get t.clock 2 in
  match t.policy with
  | P_fifo when d > 0.0 ->
      if (not t.stopped) && Heap.advance_alone t.events t.clock then begin
        t.seq <- t.seq + 2;
        t.executed <- t.executed + 1;
        f ();
        t.executed <- t.executed + 1
      end
      else Effect.perform (Delay_behind f)
  | _ ->
      let seq = t.seq in
      t.seq <- seq + 1;
      Heap.push_delay t.events ~clock:t.clock ~seq ~aux:t.cur_label f;
      if d > 0.0 then sleep t

(* [delay] of a delay the caller computed into its own float cell, so
   it never crosses the call boundary boxed. *)
let delay_cell cells i =
  let d = Array.unsafe_get cells i in
  if d < 0.0 then invalid_arg "Engine.delay: negative delay";
  if d > 0.0 then begin
    let t = current_engine () in
    Array.unsafe_set t.clock 2 d;
    sleep t
  end

let delay_behind d f =
  if d < 0.0 then invalid_arg "Engine.delay_behind: negative delay";
  let t = current_engine () in
  Array.unsafe_set t.clock 2 d;
  sleep_behind t f

let delay_behind_until cells i f =
  let t = current_engine () in
  let d = Array.unsafe_get cells i -. now t in
  if d < 0.0 then invalid_arg "Engine.delay_behind_until: time in the past";
  Array.unsafe_set t.clock 2 d;
  sleep_behind t f

let schedule_until t cells i f =
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push_until t.events ~clock:t.clock ~cells ~i ~seq ~aux:t.cur_label f

let schedule_behind_until t cells i f g =
  match t.policy with
  | P_fifo ->
      let seq = t.seq in
      t.seq <- seq + 2;
      Heap.push_until t.events ~clock:t.clock ~cells ~i ~seq ~aux:t.cur_label
        (fun () ->
          f ();
          t.executed <- t.executed + 1;
          g ())
  | _ ->
      schedule_until t cells i f;
      schedule_until t cells i g

let yield () =
  let t = current_engine () in
  Array.unsafe_set t.clock 2 0.0;
  Effect.perform Delay

let suspend register =
  ignore (current_engine () : t);
  Effect.perform (Suspend register)

let current_now () = now (current_engine ())

let current () = current_engine ()

let clock t = t.clock

let events_executed t = t.executed

let stats t = t.stats

let spans t = t.spans

let with_span t ?(tid = 0) name f =
  if not (Span.enabled t.spans) then f ()
  else begin
    let h = Span.begin_ t.spans ~name ~tid ~now:(now t) in
    Fun.protect ~finally:(fun () -> Span.end_ t.spans h ~now:(now t)) f
  end
