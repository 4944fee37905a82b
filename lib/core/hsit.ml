open Prism_media

let entry_size = 16

type t = {
  nvm : Nvm.t;
  base : int;
  capacity : int;
  mutable free_list : int list;
  mutable live : int;
  fault_skip_flush : bool;
}

let create ?(fault_skip_flush = false) nvm ~capacity =
  if capacity <= 0 then invalid_arg "Hsit.create: capacity <= 0";
  let base = Nvm.allocated nvm in
  Nvm.note_alloc nvm (capacity * entry_size);
  if Nvm.allocated nvm > Nvm.size nvm then
    invalid_arg "Hsit.create: NVM region too small";
  let free_list = List.init capacity (fun i -> i) in
  { nvm; base; capacity; free_list; live = 0; fault_skip_flush }

let capacity t = t.capacity

let live t = t.live

let bytes t = t.capacity * entry_size

let primary_off t id = t.base + (id * entry_size)

let svc_off t id = t.base + (id * entry_size) + 8

let check t id =
  if id < 0 || id >= t.capacity then invalid_arg "Hsit: entry id out of range"

let alloc t =
  match t.free_list with
  | [] -> failwith "Hsit.alloc: table full"
  | id :: rest ->
      t.free_list <- rest;
      t.live <- t.live + 1;
      Nvm.set_int64 t.nvm (primary_off t id)
        (Location.encode Location.Nowhere ~dirty:false)
        ~persist:true;
      Nvm.set_int64 t.nvm (svc_off t id) (-1L) ~persist:false;
      id

let free t id =
  check t id;
  t.free_list <- id :: t.free_list;
  t.live <- t.live - 1

(* Clear the dirty bit only if the word is still the one we persisted —
   an 8-byte CAS (§5.4). If another writer moved the pointer meanwhile,
   the clear is theirs to do. *)
let clear_dirty_if t id w =
  ignore
    (Nvm.atomic_rmw t.nvm (primary_off t id) ~f:(fun cur ->
         if Int64.equal cur w then Some (Location.set_dirty w false) else None))

let read_primary t id =
  check t id;
  let w = Nvm.get_int64 t.nvm (primary_off t id) in
  let loc, dirty = Location.decode w in
  if dirty then begin
    (* Flush-on-read: persist on behalf of the writer, then clear the
       dirty bit with a CAS (§5.4). *)
    if not t.fault_skip_flush then
      Nvm.persist t.nvm ~off:(primary_off t id) ~len:8;
    clear_dirty_if t id w
  end;
  loc

(* Writer protocol (§5.4): install the pointer with the dirty bit set via
   an atomic RMW, persist the line, then CAS the dirty bit off. Recovery
   treats a surviving dirty bit as "pointer persisted". *)
let finish_write t id dirty_word =
  if not t.fault_skip_flush then
    Nvm.persist t.nvm ~off:(primary_off t id) ~len:8;
  clear_dirty_if t id dirty_word

let update_primary t id ~expect loc =
  check t id;
  let dirty_word = Location.encode loc ~dirty:true in
  let seen =
    Nvm.atomic_rmw t.nvm (primary_off t id) ~f:(fun w ->
        let current, _ = Location.decode w in
        if Location.equal current expect then Some dirty_word else None)
  in
  let current, _ = Location.decode seen in
  if Location.equal current expect then begin
    finish_write t id dirty_word;
    true
  end
  else false

let exchange_primary t id loc =
  check t id;
  let dirty_word = Location.encode loc ~dirty:true in
  let replaced =
    Nvm.atomic_rmw t.nvm (primary_off t id) ~f:(fun _ -> Some dirty_word)
  in
  finish_write t id dirty_word;
  fst (Location.decode replaced)

let write_primary t id loc = ignore (exchange_primary t id loc : Location.t)

let decode_svc w = if w < 0L then None else Some (Int64.to_int w)

let encode_svc = function None -> -1L | Some v -> Int64.of_int v

let read_svc t id =
  check t id;
  decode_svc (Nvm.get_int64 t.nvm (svc_off t id))

let write_svc t id v =
  check t id;
  Nvm.set_int64 t.nvm (svc_off t id) (encode_svc v) ~persist:false

let cas_svc t id ~expect v =
  check t id;
  let seen =
    Nvm.atomic_rmw t.nvm (svc_off t id) ~f:(fun w ->
        if decode_svc w = expect then Some (encode_svc v) else None)
  in
  decode_svc seen = expect

let durable_primary t id =
  check t id;
  let b = Nvm.read_durable t.nvm ~off:(primary_off t id) ~len:8 in
  let loc, _dirty = Location.decode (Bytes.get_int64_le b 0) in
  loc

let recover_entry t id =
  check t id;
  let loc = durable_primary t id in
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Location.encode loc ~dirty:false);
  Bytes.set_int64_le b 8 (-1L);
  Nvm.restore t.nvm ~off:(primary_off t id) b

let restore_primary t id loc =
  check t id;
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Location.encode loc ~dirty:false);
  Nvm.restore t.nvm ~off:(primary_off t id) b

let rebuild_free_list t ~reachable =
  let free = ref [] in
  let live = ref 0 in
  for id = t.capacity - 1 downto 0 do
    if reachable id then incr live else free := id :: !free
  done;
  t.free_list <- !free;
  t.live <- !live
