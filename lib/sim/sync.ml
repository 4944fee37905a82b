module Ivar = struct
  type 'a state = Empty of (unit -> unit) Queue.t | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty (Queue.create ()) }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        t.state <- Full v;
        Queue.iter (fun resume -> resume ()) waiters

  let is_filled t = match t.state with Full _ -> true | Empty _ -> false

  let peek t = match t.state with Full v -> Some v | Empty _ -> None

  let read t =
    match t.state with
    | Full v -> v
    | Empty waiters -> (
        Engine.suspend (fun resume -> Queue.add resume waiters);
        match t.state with
        | Full v -> v
        | Empty _ -> assert false)

  let read_with_timeout t d =
    match t.state with
    | Full v -> Some v
    | Empty waiters ->
        (* [cell] holds the continuation only while the fill/timeout race
           is undecided; whichever side fires first takes it, so the
           loser's copy of [once] retains nothing and resumes nobody. *)
        let cell = ref None in
        let once () =
          match !cell with
          | None -> ()
          | Some resume ->
              cell := None;
              resume ()
        in
        Engine.suspend (fun resume ->
            cell := Some resume;
            Queue.add once waiters;
            Engine.schedule (Engine.current ()) ~after:d once);
        (* The race is decided. If the timeout won, the ivar is still
           empty and our dead waiter would sit in its queue forever —
           drop it so long-lived ivars don't accumulate closures. (If the
           fill won, the whole queue was discarded with the state switch,
           and the timer event left in the heap is an empty no-op.) *)
        (match t.state with
        | Empty waiters ->
            let keep = Queue.create () in
            Queue.iter (fun w -> if w != once then Queue.add w keep) waiters;
            Queue.clear waiters;
            Queue.transfer keep waiters
        | Full _ -> ());
        peek t

  let waiters t =
    match t.state with Full _ -> 0 | Empty q -> Queue.length q
end

(* Mailboxes and semaphores keep messages and blocked processes in
   rings, and share one registration closure: [Engine.suspend] calls
   [park] at once, while [parking] names the ring to join. Sending,
   receiving and blocking then allocate nothing of their own. *)
let no_waiters : (unit -> unit) Ring.t = Ring.create ()

let parking = ref no_waiters

let park resume =
  let waiters = !parking in
  parking := no_waiters;
  Ring.push waiters resume

let wait_in waiters =
  parking := waiters;
  Engine.suspend park

let wake_first waiters =
  if not (Ring.is_empty waiters) then (Ring.pop waiters) ()

module Mailbox = struct
  type 'a t = { messages : 'a Ring.t; waiters : (unit -> unit) Ring.t }

  let create () = { messages = Ring.create (); waiters = Ring.create () }

  let send t v =
    Ring.push t.messages v;
    wake_first t.waiters

  let try_recv t =
    if Ring.is_empty t.messages then None else Some (Ring.pop t.messages)

  let rec recv t =
    if not (Ring.is_empty t.messages) then Ring.pop t.messages
    else begin
      wait_in t.waiters;
      (* Another receiver woken at the same instant may have taken the
         message; retry until one is really available. *)
      recv t
    end

  let length t = Ring.length t.messages

  let is_empty t = Ring.is_empty t.messages
end

module Semaphore = struct
  type t = { mutable permits : int; waiters : (unit -> unit) Ring.t }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create: negative permits";
    { permits = n; waiters = Ring.create () }

  let rec acquire t =
    if t.permits > 0 then t.permits <- t.permits - 1
    else begin
      wait_in t.waiters;
      acquire t
    end

  let try_acquire t =
    if t.permits > 0 then begin
      t.permits <- t.permits - 1;
      true
    end
    else false

  let release t =
    t.permits <- t.permits + 1;
    wake_first t.waiters
end

module Mutex = struct
  type t = Semaphore.t

  let create () = Semaphore.create 1

  let with_lock t f =
    Semaphore.acquire t;
    Fun.protect ~finally:(fun () -> Semaphore.release t) f
end

module Latch = struct
  type t = {
    mutable remaining : int;
    done_ : unit Ivar.t;
  }

  let create n =
    if n < 0 then invalid_arg "Latch.create: negative count";
    let t = { remaining = n; done_ = Ivar.create () } in
    if n = 0 then Ivar.fill t.done_ ();
    t

  let arrive t =
    if t.remaining <= 0 then invalid_arg "Latch.arrive: already released";
    t.remaining <- t.remaining - 1;
    if t.remaining = 0 then Ivar.fill t.done_ ()

  let wait t = Ivar.read t.done_
end
