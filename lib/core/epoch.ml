type t = {
  mutable global : int;
  locals : int array; (* -1 when not pinned *)
  retired : (int * (unit -> unit)) Queue.t;
}

let create ~threads =
  if threads <= 0 then invalid_arg "Epoch.create: threads <= 0";
  { global = 0; locals = Array.make threads (-1); retired = Queue.create () }

let check_tid t tid =
  if tid < 0 || tid >= Array.length t.locals then
    invalid_arg "Epoch: thread id out of range"

let pin t ~tid =
  check_tid t tid;
  if t.locals.(tid) >= 0 then invalid_arg "Epoch.pin: already pinned";
  t.locals.(tid) <- t.global

let reclaim_ripe t =
  let rec loop () =
    match Queue.peek_opt t.retired with
    | Some (epoch, free) when epoch <= t.global - 2 ->
        ignore (Queue.pop t.retired);
        free ();
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let try_advance t =
  let all_current =
    Array.for_all (fun e -> e < 0 || e = t.global) t.locals
  in
  if all_current then begin
    t.global <- t.global + 1;
    reclaim_ripe t
  end

let unpin t ~tid =
  check_tid t tid;
  if t.locals.(tid) < 0 then invalid_arg "Epoch.unpin: not pinned";
  t.locals.(tid) <- -1;
  if not (Queue.is_empty t.retired) then try_advance t

let with_pinned t ~tid f =
  pin t ~tid;
  Fun.protect ~finally:(fun () -> unpin t ~tid) f

let retire t free = Queue.add (t.global, free) t.retired

let pending t = Queue.length t.retired

let reset t =
  Queue.clear t.retired;
  Array.fill t.locals 0 (Array.length t.locals) (-1)

let drain t =
  if Array.exists (fun e -> e >= 0) t.locals then
    invalid_arg "Epoch.drain: threads still pinned";
  while not (Queue.is_empty t.retired) do
    try_advance t
  done
