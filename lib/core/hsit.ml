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

let live t = t.live

let bytes t = t.capacity * entry_size

let primary_off t id = t.base + (id * entry_size)

let svc_off t id = t.base + (id * entry_size) + 8

let check t id =
  if id < 0 || id >= t.capacity then invalid_arg "Hsit: entry id out of range"

(* The SVC pointer word: an SVC index, or -1 for none. *)
let no_svc = -1

let alloc t =
  match t.free_list with
  | [] -> failwith "Hsit.alloc: table full"
  | id :: rest ->
      t.free_list <- rest;
      t.live <- t.live + 1;
      Nvm.set_word t.nvm (primary_off t id)
        (Location.encode Location.Nowhere ~dirty:false)
        ~persist:true;
      Nvm.set_word t.nvm (svc_off t id) no_svc ~persist:false;
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
    (Nvm.cas_word t.nvm (primary_off t id) ~mask:(-1) ~expect:w
       (Location.set_dirty w false)
      : int)

let read_primary_word t id =
  check t id;
  let w = Nvm.get_word t.nvm (primary_off t id) in
  if Location.is_dirty w then begin
    (* Flush-on-read: persist on behalf of the writer, then clear the
       dirty bit with a CAS (§5.4). *)
    if not t.fault_skip_flush then
      Nvm.persist t.nvm ~off:(primary_off t id) ~len:8;
    clear_dirty_if t id w
  end;
  Location.set_dirty w false

let read_primary t id = Location.decode (read_primary_word t id)

(* Writer protocol (§5.4): install the pointer with the dirty bit set via
   an atomic RMW, persist the line, then CAS the dirty bit off. Recovery
   treats a surviving dirty bit as "pointer persisted". *)
let finish_write t id dirty_word =
  if not t.fault_skip_flush then
    Nvm.persist t.nvm ~off:(primary_off t id) ~len:8;
  clear_dirty_if t id dirty_word

(* The CAS compares locations, so it masks the dirty bit out of the
   current word. Stored words are all encodings, so equal locations have
   equal clean words. *)
let update_primary_word t id ~expect w =
  check t id;
  let dirty_word = Location.set_dirty w true in
  let mask = Location.set_dirty (-1) false in
  let seen = Nvm.cas_word t.nvm (primary_off t id) ~mask ~expect dirty_word in
  if seen land mask = expect then begin
    finish_write t id dirty_word;
    true
  end
  else false

let update_primary t id ~expect loc =
  update_primary_word t id
    ~expect:(Location.encode expect ~dirty:false)
    (Location.encode loc ~dirty:false)

let exchange_primary_word t id w =
  check t id;
  let dirty_word = Location.set_dirty w true in
  let replaced =
    Nvm.cas_word t.nvm (primary_off t id) ~mask:0 ~expect:0 dirty_word
  in
  finish_write t id dirty_word;
  Location.set_dirty replaced false

let write_primary t id loc =
  ignore (exchange_primary_word t id (Location.encode loc ~dirty:false) : int)

let svc_index t id =
  check t id;
  Nvm.get_word t.nvm (svc_off t id)

let read_svc t id =
  let w = svc_index t id in
  if w = no_svc then None else Some w

(* Every stored SVC word is [no_svc] or an index, so comparing words is
   comparing their decodings. *)
let cas_svc_index t id ~expect v =
  check t id;
  Nvm.cas_word t.nvm (svc_off t id) ~mask:(-1) ~expect v = expect

let durable_primary t id =
  check t id;
  let b = Nvm.read_durable t.nvm ~off:(primary_off t id) ~len:8 in
  Location.decode (Int64.to_int (Bytes.get_int64_le b 0))

let recover_entry t id =
  check t id;
  let loc = durable_primary t id in
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int (Location.encode loc ~dirty:false));
  Bytes.set_int64_le b 8 (Int64.of_int no_svc);
  Nvm.restore t.nvm ~off:(primary_off t id) b

let restore_primary t id loc =
  check t id;
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (Location.encode loc ~dirty:false));
  Nvm.restore t.nvm ~off:(primary_off t id) b

let rebuild_free_list t ~reachable =
  let free = ref [] in
  let live = ref 0 in
  for id = t.capacity - 1 downto 0 do
    if reachable id then incr live else free := id :: !free
  done;
  t.free_list <- !free;
  t.live <- !live
