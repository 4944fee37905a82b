open Prism_sim
open Prism_device

let line_size = 64

(* The two images and the dirty map back only the written prefix of the
   region (see {!Backing}) and always grow together, so a line inside
   the prefix is backed in all three and a line past it is zero and
   clean in both images. *)
type t = {
  size : int;
  mutable volatile : Bytes.t;
  mutable durable : Bytes.t;
  mutable dirty : Bytes.t;
      (* one byte per cache line, '\001' while the line is written but
         not persisted; every store and persist touches it, so it is a
         flat array indexed by line *)
  mutable ndirty : int;
  device : Model.t;
  mutable allocated : int;
  mutable persists : int;
  mutable on_persist : (int -> unit) option;
  flush_cost : float array;
      (* one cell: a persist's CPU cost, handed to the engine unboxed *)
}

let create engine ~spec ~size () =
  if size <= 0 then invalid_arg "Nvm.create: size <= 0";
  {
    size;
    volatile = Bytes.empty;
    durable = Bytes.empty;
    dirty = Bytes.empty;
    ndirty = 0;
    device = Model.create engine spec;
    allocated = 0;
    persists = 0;
    on_persist = None;
    flush_cost = [| 0.0 |];
  }

let size t = t.size

let resident_bytes t = Bytes.length t.volatile + Bytes.length t.durable

let allocated t = t.allocated

let note_alloc t n = t.allocated <- t.allocated + n

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Nvm: range [%d, %d) outside region of %d bytes" off
         (off + len) t.size)

let grow t need =
  t.volatile <- Backing.grow t.volatile ~need ~limit:t.size;
  let cap = Bytes.length t.volatile in
  t.durable <- Backing.extend t.durable cap;
  t.dirty <- Backing.extend t.dirty (Bits.ceil_div cap line_size)

(* Back [off, off + len) before storing into it; [check] has bounded it. *)
let ensure t ~off ~len =
  if off + len > Bytes.length t.volatile then grow t (off + len)

let mark_dirty t ~off ~len =
  if len > 0 then
    for line = off / line_size to (off + len - 1) / line_size do
      if Bytes.unsafe_get t.dirty line = '\000' then begin
        Bytes.unsafe_set t.dirty line '\001';
        t.ndirty <- t.ndirty + 1
      end
    done

(* Clear a line's dirty mark; true if it was set. *)
let clean_line t line =
  if Bytes.unsafe_get t.dirty line = '\000' then false
  else begin
    Bytes.unsafe_set t.dirty line '\000';
    t.ndirty <- t.ndirty - 1;
    true
  end

let read t ~off ~len =
  check t ~off ~len;
  Model.access t.device Model.Read ~size:len;
  Backing.sub t.volatile off len

let read_into t ~off dst =
  let len = Bytes.length dst in
  check t ~off ~len;
  Model.access t.device Model.Read ~size:len;
  Backing.blit_out t.volatile off dst 0 len

let write t ~off src =
  let len = Bytes.length src in
  check t ~off ~len;
  Model.access t.device Model.Write ~size:len;
  ensure t ~off ~len;
  Bytes.blit src 0 t.volatile off len;
  mark_dirty t ~off ~len

(* Lines past the dirty map were never written, so they are clean. *)
let flush_range t ~off ~len =
  if len > 0 then
    for
      line = off / line_size
      to min ((off + len - 1) / line_size) (Bytes.length t.dirty - 1)
    do
      if clean_line t line then begin
        let start = line * line_size in
        let stop = min (start + line_size) (Bytes.length t.volatile) in
        Bytes.blit t.volatile start t.durable start (stop - start)
      end
    done

let persist t ~off ~len =
  check t ~off ~len;
  let lines = if len = 0 then 0 else ((off + len - 1) / line_size) - (off / line_size) + 1 in
  Array.unsafe_set t.flush_cost 0
    ((float_of_int lines *. Cost.default.Cost.flush_line)
    +. Cost.default.Cost.fence);
  Engine.delay_cell t.flush_cost 0;
  flush_range t ~off ~len;
  t.persists <- t.persists + 1;
  match t.on_persist with Some f -> f t.persists | None -> ()

let write_persist t ~off src =
  write t ~off src;
  persist t ~off ~len:(Bytes.length src)

(* The word at [off] as an immediate: its low 63 bits. *)
let word image off =
  if off + 8 <= Bytes.length image then
    Int64.to_int (Bytes.get_int64_le image off)
  else Int64.to_int (Bytes.get_int64_le (Backing.sub image off 8) 0)

(* Store [w] sign-extended to 64 bits. *)
let store_word t off w =
  ensure t ~off ~len:8;
  Bytes.set_int64_le t.volatile off (Int64.of_int w);
  mark_dirty t ~off ~len:8

let get_word t off =
  check t ~off ~len:8;
  Model.access t.device Model.Read ~size:8;
  word t.volatile off

let set_word t off w ~persist:do_persist =
  check t ~off ~len:8;
  Model.access t.device Model.Write ~size:8;
  store_word t off w;
  if do_persist then persist t ~off ~len:8

let cas_word t off ~mask ~expect w =
  check t ~off ~len:8;
  (* Charge first; the compare-and-store itself is a single instant with
     no yields, so the compare sees the word as it is when the swap
     lands. *)
  Model.access t.device Model.Write ~size:8;
  let cur = word t.volatile off in
  if cur land mask = expect then store_word t off w;
  cur

let crash t =
  Bytes.blit t.durable 0 t.volatile 0 (Bytes.length t.durable);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.ndirty <- 0

let read_durable t ~off ~len =
  check t ~off ~len;
  Backing.sub t.durable off len

let restore t ~off src =
  let len = Bytes.length src in
  check t ~off ~len;
  ensure t ~off ~len;
  Bytes.blit src 0 t.volatile off len;
  Bytes.blit src 0 t.durable off len;
  if len > 0 then
    for line = off / line_size to (off + len - 1) / line_size do
      ignore (clean_line t line)
    done

let dirty_lines t = t.ndirty

let set_persist_hook t f = t.on_persist <- f

let device t = t.device

let register_stats t stats ~prefix =
  Stats.gauge_int stats (prefix ^ ".persists") (fun () -> t.persists);
  Stats.gauge_int stats (prefix ^ ".dirty_lines") (fun () -> t.ndirty);
  Stats.gauge_int stats (prefix ^ ".allocated") (fun () -> t.allocated);
  Stats.gauge_int stats (prefix ^ ".resident_bytes") (fun () ->
      resident_bytes t);
  Model.register_stats t.device stats ~prefix
