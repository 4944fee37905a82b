open Prism_sim

(* Retired objects wait in three rings kept in step: the epoch each was
   retired in, its free function, and that function's argument. *)
type t = {
  mutable global : int;
  locals : int array; (* -1 when not pinned *)
  epochs : int Ring.t;
  frees : (int -> unit) Ring.t;
  args : int Ring.t;
}

let create ~threads =
  if threads <= 0 then invalid_arg "Epoch.create: threads <= 0";
  {
    global = 0;
    locals = Array.make threads (-1);
    epochs = Ring.create ();
    frees = Ring.create ();
    args = Ring.create ();
  }

let check_tid t tid =
  if tid < 0 || tid >= Array.length t.locals then
    invalid_arg "Epoch: thread id out of range"

let pin t ~tid =
  check_tid t tid;
  if t.locals.(tid) >= 0 then invalid_arg "Epoch.pin: already pinned";
  t.locals.(tid) <- t.global

let rec reclaim_ripe t =
  if (not (Ring.is_empty t.epochs)) && Ring.peek t.epochs <= t.global - 2
  then begin
    ignore (Ring.pop t.epochs : int);
    let free = Ring.pop t.frees in
    free (Ring.pop t.args);
    reclaim_ripe t
  end

let try_advance t =
  let all_current = ref true in
  for i = 0 to Array.length t.locals - 1 do
    let e = t.locals.(i) in
    if e >= 0 && e <> t.global then all_current := false
  done;
  if !all_current then begin
    t.global <- t.global + 1;
    reclaim_ripe t
  end

let unpin t ~tid =
  check_tid t tid;
  if t.locals.(tid) < 0 then invalid_arg "Epoch.unpin: not pinned";
  t.locals.(tid) <- -1;
  if not (Ring.is_empty t.epochs) then try_advance t

let with_pinned t ~tid f =
  pin t ~tid;
  Fun.protect ~finally:(fun () -> unpin t ~tid) f

let retire t free arg =
  Ring.push t.epochs t.global;
  Ring.push t.frees free;
  Ring.push t.args arg

let pending t = Ring.length t.epochs

let reset t =
  Ring.clear t.epochs;
  Ring.clear t.frees;
  Ring.clear t.args;
  Array.fill t.locals 0 (Array.length t.locals) (-1)

let drain t =
  if Array.exists (fun e -> e >= 0) t.locals then
    invalid_arg "Epoch.drain: threads still pinned";
  while not (Ring.is_empty t.epochs) do
    try_advance t
  done
