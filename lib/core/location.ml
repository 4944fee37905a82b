type t =
  | Nowhere
  | In_pwb of { thread : int; voff : int }
  | In_vs of { vs : int; gen : int; chunk : int; slot : int }

let equal a b =
  match (a, b) with
  | Nowhere, Nowhere -> true
  | In_pwb a, In_pwb b -> a.thread = b.thread && a.voff = b.voff
  | In_vs a, In_vs b ->
      a.vs = b.vs && a.gen = b.gen && a.chunk = b.chunk && a.slot = b.slot
  | (Nowhere | In_pwb _ | In_vs _), _ -> false

let same_slot a b =
  match (a, b) with
  | In_vs a, In_vs b -> a.vs = b.vs && a.chunk = b.chunk && a.slot = b.slot
  | (Nowhere | In_pwb _ | In_vs _), _ -> false

let pp fmt = function
  | Nowhere -> Format.fprintf fmt "nowhere"
  | In_pwb { thread; voff } -> Format.fprintf fmt "pwb[%d]@%d" thread voff
  | In_vs { vs; gen; chunk; slot } ->
      Format.fprintf fmt "vs[%d]chunk%d.%d slot%d" vs chunk gen slot

(* The word is an immediate [int]: its 63 bits hold the whole encoding,
   so the dirty bit (bit 62) is the int's sign bit. *)
let dirty_bit = 1 lsl 62

let tag_shift = 60

(* In_vs payload layout (low to high):
   slot 15 bits | chunk 20 bits | gen 17 bits | vs 8 bits = 60 bits. *)
let slot_bits = 15

let chunk_bits = 20

let gen_bits = 17

let max_thread = (1 lsl 12) - 1

let max_voff = (1 lsl 44) - 1

let max_vs = (1 lsl 8) - 1

let max_chunk = (1 lsl chunk_bits) - 1

let max_slot = (1 lsl slot_bits) - 1

let gen_mask = (1 lsl gen_bits) - 1

let vs_shift = slot_bits + chunk_bits + gen_bits

let pwb_word ~thread ~voff =
  if thread < 0 || thread > max_thread then
    invalid_arg "Location.encode: thread out of range";
  if voff < 0 || voff > max_voff then
    invalid_arg "Location.encode: voff out of range";
  (1 lsl tag_shift) lor (thread lsl 44) lor voff

let vs_word ~vs ~gen ~chunk ~slot =
  if vs < 0 || vs > max_vs then invalid_arg "Location.encode: vs out of range";
  if chunk < 0 || chunk > max_chunk then
    invalid_arg "Location.encode: chunk out of range";
  if slot < 0 || slot > max_slot then
    invalid_arg "Location.encode: slot out of range";
  (2 lsl tag_shift)
  lor slot
  lor (chunk lsl slot_bits)
  lor ((gen land gen_mask) lsl (slot_bits + chunk_bits))
  lor (vs lsl vs_shift)

let nowhere_word = 0

let[@inline] is_pwb w = (w lsr tag_shift) land 3 = 1

let[@inline] is_vs w = (w lsr tag_shift) land 3 = 2

let[@inline] pwb_thread w = (w lsr 44) land max_thread

let[@inline] pwb_voff w = w land max_voff

let[@inline] vs_id w = (w lsr vs_shift) land max_vs

let[@inline] vs_gen w = (w lsr (slot_bits + chunk_bits)) land gen_mask

let[@inline] vs_chunk w = (w lsr slot_bits) land max_chunk

let[@inline] vs_slot w = w land max_slot

let encode loc ~dirty =
  let w =
    match loc with
    | Nowhere -> nowhere_word
    | In_pwb { thread; voff } -> pwb_word ~thread ~voff
    | In_vs { vs; gen; chunk; slot } -> vs_word ~vs ~gen ~chunk ~slot
  in
  if dirty then w lor dirty_bit else w

let decode w =
  match (w lsr tag_shift) land 3 with
  | 0 -> Nowhere
  | 1 -> In_pwb { thread = pwb_thread w; voff = pwb_voff w }
  | 2 ->
      In_vs
        { vs = vs_id w; gen = vs_gen w; chunk = vs_chunk w; slot = vs_slot w }
  | _ -> invalid_arg "Location.decode: tag 3 encodes no location"

let is_dirty w = w land dirty_bit <> 0

let set_dirty w b = if b then w lor dirty_bit else w land lnot dirty_bit

let truncate_gen gen = gen land gen_mask
