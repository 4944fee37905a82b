open Prism_media
open Prism_sim

let header_size = 16

let pad_marker = -2L

type t = {
  nvm : Nvm.t;
  base : int;
  capacity : int;
  thread : int;
  mutable head : int;
  mutable tail : int;
  waiters : (unit -> unit) Queue.t;
}

(* A record header as read from NVM. Every reader decodes it right after
   its read lands, before it can be suspended again, so one buffer
   serves every ring. *)
let header = Bytes.create header_size

let create nvm ~thread ~size =
  if size < 4 * header_size then invalid_arg "Pwb.create: size too small";
  if size mod header_size <> 0 then
    invalid_arg "Pwb.create: size must be a multiple of 16";
  let base = Nvm.allocated nvm in
  Nvm.note_alloc nvm size;
  if Nvm.allocated nvm > Nvm.size nvm then
    invalid_arg "Pwb.create: NVM region too small";
  {
    nvm;
    base;
    capacity = size;
    thread;
    head = 0;
    tail = 0;
    waiters = Queue.create ();
  }

let thread t = t.thread

let capacity t = t.capacity

let head t = t.head

let tail t = t.tail

let used t = t.tail - t.head

let utilization t = float_of_int (used t) /. float_of_int t.capacity

let phys t voff = t.base + (voff mod t.capacity)

(* Bytes the tail must skip so that a record of [reclen] bytes fits
   contiguously, plus whether an explicit pad header is needed. *)
let skip_for t reclen =
  let pos = t.tail mod t.capacity in
  let remaining = t.capacity - pos in
  if remaining >= reclen then (0, false)
  else (remaining, remaining >= header_size)

let write_pad t pad =
  let b = Bytes.make header_size '\000' in
  Bytes.set_int64_le b 0 pad_marker;
  Bytes.set_int32_le b 8 (Int32.of_int (pad - header_size));
  Nvm.write_persist t.nvm ~off:(phys t t.tail) b

let append t ~hsit_id ~value =
  let len = Bytes.length value in
  let reclen = header_size + Prism_sim.Bits.round_up len header_size in
  if reclen > t.capacity / 2 then invalid_arg "Pwb.append: value too large";
  let rec wait_for_space () =
    let skip, _ = skip_for t reclen in
    if used t + skip + reclen > t.capacity then begin
      Engine.suspend (fun resume -> Queue.add resume t.waiters);
      wait_for_space ()
    end
  in
  wait_for_space ();
  let skip, explicit_pad = skip_for t reclen in
  if skip > 0 then begin
    if explicit_pad then write_pad t skip;
    t.tail <- t.tail + skip
  end;
  let voff = t.tail in
  let record = Bytes.make reclen '\000' in
  Bytes.set_int64_le record 0 (Int64.of_int hsit_id);
  Bytes.set_int32_le record 8 (Int32.of_int len);
  Bytes.blit value 0 record header_size len;
  Nvm.write_persist t.nvm ~off:(phys t voff) record;
  t.tail <- t.tail + reclen;
  voff

let check_range t voff =
  if voff < t.head || voff >= t.tail then
    invalid_arg "Pwb: virtual offset outside live range"

let header_id b = Int64.to_int (Bytes.get_int64_le b 0)

let header_len b = Int32.to_int (Bytes.get_int32_le b 8)

(* Read the header at [voff] into [header], charging the NVM read. *)
let read_header t ~voff = Nvm.read_into t.nvm ~off:(phys t voff) header

let read t ~voff ~hsit_id =
  check_range t voff;
  read_header t ~voff;
  let id = header_id header and len = header_len header in
  if id < 0 then invalid_arg "Pwb.read: pad record";
  let payload = Nvm.read t.nvm ~off:(phys t voff + header_size) ~len in
  if id = hsit_id then payload else Bytes.empty

let record_extent ~len = header_size + Prism_sim.Bits.round_up len header_size

let rec next_record t ~voff found =
  let voff = max voff t.head in
  if voff >= t.tail then -1
  else begin
    let pos = voff mod t.capacity in
    let remaining = t.capacity - pos in
    if remaining < header_size then next_record t ~voff:(voff + remaining) found
    else begin
      read_header t ~voff;
      let hsit_id = header_id header and len = header_len header in
      if Int64.of_int hsit_id = pad_marker then
        next_record t ~voff:(voff + header_size + len) found
      else begin
        found.(0) <- hsit_id;
        found.(1) <- len;
        voff
      end
    end
  end

let fold_records t f acc =
  let found = [| 0; 0 |] in
  let rec go acc voff =
    let voff = next_record t ~voff found in
    if voff < 0 then acc
    else
      let len = found.(1) in
      go (f acc ~voff ~hsit_id:found.(0) ~len) (voff + record_extent ~len)
  in
  go acc t.head

let advance_head t ~to_ =
  if to_ < t.head || to_ > t.tail then
    invalid_arg "Pwb.advance_head: offset outside [head, tail]";
  t.head <- to_;
  (* Wake every waiter; they re-check space and re-queue if unlucky. *)
  let pending = Queue.length t.waiters in
  for _ = 1 to pending do
    match Queue.take_opt t.waiters with
    | Some resume -> resume ()
    | None -> ()
  done

let read_durable t ~voff found =
  found.(0) <- -1;
  if voff < t.head || voff >= t.tail then Bytes.empty
  else begin
    let pos = voff mod t.capacity in
    if t.capacity - pos < header_size then Bytes.empty
    else begin
      let b = Nvm.read_durable t.nvm ~off:(phys t voff) ~len:header_size in
      let hsit_id = header_id b and len = header_len b in
      if hsit_id < 0 || len < 0 || len > t.capacity then Bytes.empty
      else if t.capacity - pos < header_size + len then Bytes.empty
      else begin
        found.(0) <- hsit_id;
        Nvm.read_durable t.nvm ~off:(phys t voff + header_size) ~len
      end
    end
  end

let reset_range t ~head ~tail =
  if head > tail then invalid_arg "Pwb.reset_range";
  t.head <- head;
  t.tail <- tail
