(* [data] backs only the written prefix of the image (see {!Backing}). *)
type t = {
  size : int;
  mutable data : Bytes.t;
  mutable writes : int;
  mutable on_write : (int -> unit) option;
  mutable on_read : (off:int -> len:int -> unit) option;
}

let create ~size =
  if size <= 0 then invalid_arg "Ssd_image.create: size <= 0";
  { size; data = Bytes.empty; writes = 0; on_write = None; on_read = None }

let size t = t.size

let resident_bytes t = Bytes.length t.data

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Ssd_image: range [%d, %d) outside image of %d bytes"
         off (off + len) t.size)

let read t ~off ~len =
  check t ~off ~len;
  (match t.on_read with Some f -> f ~off ~len | None -> ());
  Backing.sub t.data off len

let write t ~off src =
  let len = Bytes.length src in
  check t ~off ~len;
  if off + len > Bytes.length t.data then
    t.data <- Backing.grow t.data ~need:(off + len) ~limit:t.size;
  Bytes.blit src 0 t.data off len;
  t.writes <- t.writes + 1;
  match t.on_write with Some f -> f t.writes | None -> ()

let blit_to t ~off dst ~dst_off ~len =
  check t ~off ~len;
  Backing.blit_out t.data off dst dst_off len

let write_count t = t.writes

let set_write_hook t f = t.on_write <- f

let set_read_hook t f = t.on_read <- f
