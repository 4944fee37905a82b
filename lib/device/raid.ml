open Prism_sim

type t = { stripe_unit : int; devices : Model.t array }

let create ?(stripe_unit = 512 * 1024) devices =
  if devices = [] then invalid_arg "Raid.create: no devices";
  if stripe_unit <= 0 then invalid_arg "Raid.create: stripe_unit <= 0";
  { stripe_unit; devices = Array.of_list devices }

(* Split [off, off+size) at stripe boundaries and issue each piece to the
   device owning that stripe. *)
let submit t dir ~off ~size =
  if off < 0 || size < 0 then invalid_arg "Raid.submit: negative off/size";
  let n = Array.length t.devices in
  let completion = ref 0.0 in
  let remaining = ref size in
  let pos = ref off in
  if size = 0 then begin
    let dev = t.devices.((off / t.stripe_unit) mod n) in
    completion := Model.submit dev dir ~size:0
  end;
  while !remaining > 0 do
    let stripe = !pos / t.stripe_unit in
    let dev = t.devices.(stripe mod n) in
    let stripe_end = (stripe + 1) * t.stripe_unit in
    let piece = min !remaining (stripe_end - !pos) in
    let c = Model.submit dev dir ~size:piece in
    if c > !completion then completion := c;
    pos := !pos + piece;
    remaining := !remaining - piece
  done;
  !completion

let access t dir ~off ~size =
  let completion = submit t dir ~off ~size in
  Engine.delay (Float.max 0.0 (completion -. Engine.current_now ()))

let bytes_written t =
  Array.fold_left (fun acc d -> acc + Model.bytes_written d) 0 t.devices

let bytes_read t =
  Array.fold_left (fun acc d -> acc + Model.bytes_read d) 0 t.devices
