open Prism_sim
open Prism_device
open Prism_media

let header_size = 16

let sector = 512

let terminator = -1L

(* A pooled run read (see [read_run]): its IO request, built once with
   the completion that copies the run's payloads out, and the run it
   fills this time. *)
type read = {
  io : Io_uring.request;
  mutable gen : int;
  mutable chunk : int;
  mutable words : int array;
  mutable values : bytes array;
  mutable order : int array;
  mutable pos : int;
  mutable len : int;
}

(* Open: written, but its writer is still publishing HSIT pointers and
   validity bits — GC must not touch it yet. *)
type chunk_state = Free | Open | Sealed

type slot = { backptr : int; off : int; len : int }

type chunk_meta = {
  mutable state : chunk_state;
  mutable gen : int;
  mutable slots : slot array;
  mutable valid : bool array;
  mutable live : int;
  mutable live_padded : int;
      (* on-SSD bytes (header included) of the valid slots: GC's victim
         key, kept in step with [valid] so picking victims never walks
         the slots *)
}

(* A mover's batch as parallel arrays: HSIT id, payload and the clean
   HSIT word of the location each value moves from; [count] are in
   use. *)
type moves = {
  mutable ids : int array;
  mutable values : bytes array;
  mutable froms : int array;
  mutable count : int;
}

let moves () = { ids = [||]; values = [||]; froms = [||]; count = 0 }

let add_move m ~id ~value ~from_ =
  let n = m.count in
  if n = Array.length m.ids then begin
    let cap = max 16 (2 * n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    m.ids <- grow m.ids 0;
    m.values <- grow m.values Bytes.empty;
    m.froms <- grow m.froms 0
  end;
  m.ids.(n) <- id;
  m.values.(n) <- value;
  m.froms.(n) <- from_;
  m.count <- n + 1

(* Empty [m] for its next batch, dropping its payloads. *)
let clear_moves m =
  Array.fill m.values 0 m.count Bytes.empty;
  m.count <- 0

type t = {
  id : int;
  engine : Engine.t;
  image : Ssd_image.t;
  device : Model.t;
  uring : Io_uring.t;
  chunk_size : int;
  nchunks : int;
  chunks : chunk_meta array;
  mutable free_list : int list;
  mutable nfree : int;
  gc_watermark : float;
  alloc_waiters : (unit -> unit) Queue.t;
  gc_wakeup : unit Sync.Mailbox.t;
  mutable gc_running : bool;
  gc_runs : Metric.Counter.t;
  gc_span_tid : int; (* the GC process's own frame stack for its passes *)
  mutable chunk_buf : Bytes.t;
      (* whole-chunk read buffer of GC passes and recovery, allocated on
         first use; this storage's single GC process and its recovery
         each consume it before the next fill *)
  mutable staging : Bytes.t list;
      (* chunk-write buffers whose write has landed, for the next write
         to reuse *)
  victim_heap : int array; (* GC's min-heap of sealed chunks, by key *)
  gc_moves : moves; (* the GC pass's gathered live slots *)
  mutable reads : read array; (* every read handle made so far *)
  spare_reads : int Ring.t; (* handles whose reader has released them *)
}

let create ?(gc_watermark = 0.75) engine ~id ~size ~chunk_size ~queue_depth
    ~spec ~cost =
  if size mod chunk_size <> 0 then
    invalid_arg "Value_storage.create: chunk_size must divide size";
  let nchunks = size / chunk_size in
  if nchunks < 4 then invalid_arg "Value_storage.create: need >= 4 chunks";
  let device = Model.create engine spec in
  let uring = Io_uring.create engine device ~queue_depth ~cost in
  {
    id;
    engine;
    image = Ssd_image.create ~size;
    device;
    uring;
    chunk_size;
    nchunks;
    chunks =
      Array.init nchunks (fun _ ->
          {
            state = Free;
            gen = 0;
            slots = [||];
            valid = [||];
            live = 0;
            live_padded = 0;
          });
    free_list = List.init nchunks (fun i -> i);
    nfree = nchunks;
    gc_watermark;
    alloc_waiters = Queue.create ();
    gc_wakeup = Sync.Mailbox.create ();
    gc_running = false;
    gc_runs = Metric.Counter.create ();
    gc_span_tid = Span.fresh_tid (Engine.spans engine);
    chunk_buf = Bytes.empty;
    staging = [];
    victim_heap = Array.make nchunks 0;
    gc_moves = moves ();
    reads = [||];
    spare_reads = Ring.create ();
  }

let id t = t.id

let free_chunks t = t.nfree

let chunk_size t = t.chunk_size

let uring t = t.uring

let is_idle t = Io_uring.is_idle t.uring

let device t = t.device

let image t = t.image

let gc_runs t = Metric.Counter.value t.gc_runs

let chunk_gen t ~chunk = t.chunks.(chunk).gen

(* Copy one chunk out of the image into [chunk_buf]. *)
let read_chunk t chunk =
  if Bytes.length t.chunk_buf = 0 then t.chunk_buf <- Bytes.create t.chunk_size;
  Ssd_image.blit_to t.image ~off:(chunk * t.chunk_size) t.chunk_buf ~dst_off:0
    ~len:t.chunk_size

let gc_threshold t =
  max 2 (int_of_float (float_of_int t.nchunks *. (1.0 -. t.gc_watermark)))

let poke_gc t =
  if t.gc_running && t.nfree < gc_threshold t then
    Sync.Mailbox.send t.gc_wakeup ()

(* Normal writers must leave one chunk in reserve for the garbage
   collector, or a full log deadlocks: GC needs a destination chunk to
   compact into. *)
let rec alloc_chunk t ~reserve =
  match t.free_list with
  | c :: rest when t.nfree > reserve ->
      t.free_list <- rest;
      t.nfree <- t.nfree - 1;
      poke_gc t;
      c
  | _ ->
      poke_gc t;
      Engine.suspend (fun resume -> Queue.add resume t.alloc_waiters);
      alloc_chunk t ~reserve

(* Recycling bumps the generation, so every stale (gen, chunk, slot)
   reference held anywhere in the system becomes visibly dead. *)
let release_chunk t c =
  let meta = t.chunks.(c) in
  meta.state <- Free;
  meta.gen <- Location.truncate_gen (meta.gen + 1);
  meta.slots <- [||];
  meta.valid <- [||];
  meta.live <- 0;
  meta.live_padded <- 0;
  t.free_list <- c :: t.free_list;
  t.nfree <- t.nfree + 1;
  let pending = Queue.length t.alloc_waiters in
  for _ = 1 to pending do
    match Queue.take_opt t.alloc_waiters with
    | Some resume -> resume ()
    | None -> ()
  done

let padded len = header_size + Prism_sim.Bits.round_up len header_size

(* A zeroed chunk-sized buffer: a landed write's, or a fresh one. *)
let take_staging t =
  match t.staging with
  | buf :: rest ->
      t.staging <- rest;
      Bytes.fill buf 0 t.chunk_size '\000';
      buf
  | [] -> Bytes.make t.chunk_size '\000'

let write_into_chunk t chunk m ~pos ~len =
  if len <= 0 then invalid_arg "Value_storage.write_chunk: empty";
  let total = ref 0 in
  for i = pos to pos + len - 1 do
    let n = Bytes.length m.values.(i) in
    if n = 0 then invalid_arg "Value_storage.write_chunk: empty value";
    total := !total + padded n
  done;
  if !total + header_size > t.chunk_size then
    invalid_arg "Value_storage.write_chunk: values exceed chunk";
  let buf = take_staging t in
  let slots = Array.make len { backptr = 0; off = 0; len = 0 } in
  let off = ref 0 in
  for slot = 0 to len - 1 do
    let hsit_id = m.ids.(pos + slot) and value = m.values.(pos + slot) in
    let vlen = Bytes.length value in
    Bytes.set_int64_le buf !off (Int64.of_int hsit_id);
    Bytes.set_int32_le buf (!off + 8) (Int32.of_int vlen);
    Bytes.blit value 0 buf (!off + header_size) vlen;
    slots.(slot) <- { backptr = hsit_id; off = !off; len = vlen };
    off := !off + padded vlen
  done;
  Bytes.set_int64_le buf !off terminator;
  let meta = t.chunks.(chunk) in
  meta.state <- Open;
  meta.slots <- slots;
  meta.valid <- Array.make len false;
  meta.live <- 0;
  meta.live_padded <- 0;
  (* A partially filled chunk only transfers its used pages; the log is
     still written in large sequential extents. (At paper scale chunks are
     always full — the PWB is three orders of magnitude larger than a
     chunk — but at simulation scale charging the whole chunk would
     fabricate write amplification.) *)
  let io_size =
    min t.chunk_size
      (Prism_sim.Bits.round_up (!off + header_size) 4096)
  in
  let entry =
    {
      Io_uring.dir = Model.Write;
      size = io_size;
      action =
        (fun () ->
          Ssd_image.write t.image ~off:(chunk * t.chunk_size) buf;
          t.staging <- buf :: t.staging);
    }
  in
  match Io_uring.submit t.uring [ entry ] with
  | [ io ] -> (chunk, meta.gen, io)
  | _ -> assert false

let write_chunk t values =
  let m = moves () in
  List.iter (fun (id, value) -> add_move m ~id ~value ~from_:0) values;
  let chunk = alloc_chunk t ~reserve:1 in
  write_into_chunk t chunk m ~pos:0 ~len:m.count

let seal t ~chunk =
  let meta = t.chunks.(chunk) in
  if meta.state = Open then meta.state <- Sealed

(* Prism randomly picks one of the idle Value Storages (no in-flight
   requests); if all are busy, any random one (§5.2). *)
let pick rng storages =
  match Array.to_list storages |> List.filter is_idle with
  | [] -> storages.(Rng.int rng (Array.length storages))
  | idle -> List.nth idle (Rng.int rng (List.length idle))

(* The slot's metadata while [gen] is current, else [no_slot]. *)
let no_slot = { backptr = -1; off = 0; len = 0 }

let slot_at t ~gen ~chunk ~slot =
  if chunk < 0 || chunk >= t.nchunks then no_slot
  else begin
    let meta = t.chunks.(chunk) in
    if meta.state = Free || meta.gen <> gen then no_slot
    else if slot < 0 || slot >= Array.length meta.slots then no_slot
    else meta.slots.(slot)
  end

let backptr t ~gen ~chunk ~slot = (slot_at t ~gen ~chunk ~slot).backptr

(* Copy the payloads of read [k]'s run out of the image, at its IO's
   completion. *)
let copy_out t k () =
  let rd = t.reads.(k) in
  let gen = rd.gen and chunk = rd.chunk in
  (* Gen re-check at completion: the chunk may have been recycled while
     the IO was in flight. *)
  if t.chunks.(chunk).gen = gen then
    for j = rd.pos to rd.pos + rd.len - 1 do
      let i = rd.order.(j) in
      let s = slot_at t ~gen ~chunk ~slot:(Location.vs_slot rd.words.(i)) in
      if s != no_slot then
        rd.values.(i) <-
          Ssd_image.read t.image
            ~off:((chunk * t.chunk_size) + s.off + header_size)
            ~len:s.len
    done

let take_read t =
  if not (Ring.is_empty t.spare_reads) then Ring.pop t.spare_reads
  else begin
    let k = Array.length t.reads in
    let rd =
      {
        io = Io_uring.request t.uring ~dir:Model.Read ~size:0 (copy_out t k);
        gen = 0;
        chunk = 0;
        words = [||];
        values = [||];
        order = [||];
        pos = 0;
        len = 0;
      }
    in
    t.reads <- Array.append t.reads [| rd |];
    k
  end

let read_run t ~gen ~chunk ~words ~values ~order ~pos ~len =
  let lo = ref max_int and hi = ref (-1) in
  for k = pos to pos + len - 1 do
    let s = slot_at t ~gen ~chunk ~slot:(Location.vs_slot words.(order.(k))) in
    if s != no_slot then begin
      lo := min !lo s.off;
      hi := max !hi (s.off + header_size + s.len)
    end
  done;
  if !hi < 0 then -1
  else begin
    let k = take_read t in
    let rd = t.reads.(k) in
    rd.gen <- gen;
    rd.chunk <- chunk;
    rd.words <- words;
    rd.values <- values;
    rd.order <- order;
    rd.pos <- pos;
    rd.len <- len;
    Io_uring.rearm rd.io ~size:(Prism_sim.Bits.round_up (!hi - !lo) sector);
    k
  end

let read_request t k = t.reads.(k).io

let release_read t k =
  let rd = t.reads.(k) in
  rd.words <- [||];
  rd.values <- [||];
  rd.order <- [||];
  Ring.push t.spare_reads k

let read_slot_sync t ~gen ~chunk ~slot =
  let values = [| Bytes.empty |] in
  let k =
    read_run t ~gen ~chunk
      ~words:[| Location.vs_word ~vs:t.id ~gen ~chunk ~slot |]
      ~values ~order:[| 0 |] ~pos:0 ~len:1
  in
  if k < 0 then None
  else begin
    let size = Io_uring.size (read_request t k) in
    Io_uring.submit_and_wait t.uring
      [ { Io_uring.dir = Model.Read; size; action = copy_out t k } ];
    release_read t k;
    if Bytes.length values.(0) = 0 then None else Some values.(0)
  end

let set_valid t ~gen ~chunk ~slot v =
  if chunk >= 0 && chunk < t.nchunks then begin
    let meta = t.chunks.(chunk) in
    if
      meta.state <> Free && meta.gen = gen && slot >= 0
      && slot < Array.length meta.valid
      && meta.valid.(slot) <> v
    then begin
      meta.valid.(slot) <- v;
      let delta = if v then 1 else -1 in
      meta.live <- meta.live + delta;
      meta.live_padded <-
        meta.live_padded + (delta * padded meta.slots.(slot).len)
    end
  end

(* The mover side of §5.4: the chunk is durable before any HSIT entry
   names it, a slot turns valid only once its entry points at it, and GC
   may consider the chunk only after every slot is settled. A value whose
   entry moved on while the chunk was in flight stays invalid: it is
   garbage in the new chunk. *)
let install ?chunk t m ~pos ~len ~repoint ~moved =
  let chunk =
    match chunk with Some c -> c | None -> alloc_chunk t ~reserve:1
  in
  let chunk, gen, written = write_into_chunk t chunk m ~pos ~len in
  Io_uring.await written;
  for slot = 0 to len - 1 do
    let from_ = m.froms.(pos + slot) in
    let to_ = Location.vs_word ~vs:t.id ~gen ~chunk ~slot in
    if repoint ~hsit_id:m.ids.(pos + slot) ~from_ ~to_ then begin
      set_valid t ~gen ~chunk ~slot true;
      moved from_
    end
  done;
  seal t ~chunk

let is_valid t ~gen ~chunk ~slot =
  chunk >= 0 && chunk < t.nchunks
  &&
  let meta = t.chunks.(chunk) in
  meta.state <> Free && meta.gen = gen && slot >= 0
  && slot < Array.length meta.valid
  && meta.valid.(slot)

let live_slots t ~chunk = t.chunks.(chunk).live

let iter_valid t f =
  Array.iteri
    (fun chunk meta ->
      if meta.state <> Free then
        Array.iteri
          (fun slot s ->
            if meta.valid.(slot) then
              f ~gen:meta.gen ~chunk ~slot ~hsit_id:s.backptr)
          meta.slots)
    t.chunks

let live_bytes t =
  let total = ref 0 in
  Array.iter
    (fun meta ->
      if meta.state <> Free then
        Array.iteri
          (fun i s -> if meta.valid.(i) then total := !total + s.len)
          meta.slots)
    t.chunks;
  !total

let check_live t =
  Array.iteri
    (fun c meta ->
      let walked = ref 0 in
      Array.iteri
        (fun i s -> if meta.valid.(i) then walked := !walked + padded s.len)
        meta.slots;
      if meta.live_padded <> !walked then
        failwith
          (Printf.sprintf
             "Value_storage.check_live: chunk %d counts %d live bytes, its \
              slots hold %d"
             c meta.live_padded !walked))
    t.chunks

(* ---- victim pick: [victim_heap] as a binary min-heap of keys ---- *)

let rec sift_down h n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
    if h.(c) < h.(i) then begin
      let x = h.(i) in
      h.(i) <- h.(c);
      h.(c) <- x;
      sift_down h n c
    end
  end

(* Pick victim chunks greedily by live payload (§5.2): least live bytes
   first, then lowest chunk index. Compaction may write several output
   chunks; the pick only requires a net gain (more victims than outputs)
   and enough free chunks to host the outputs — at high occupancy this
   still makes progress where a single-output policy would wedge.

   The sealed chunks' keys ([live_padded * nchunks + chunk], so integer
   order is that order) are heapified in place and popped one at a time
   until the smallest such victim set is found: a pass that stops after
   k victims costs O(nchunks + k log nchunks) and allocates only the
   victim list. *)
let pick_victims t =
  let h = t.victim_heap in
  let n = ref 0 in
  for c = 0 to t.nchunks - 1 do
    let meta = t.chunks.(c) in
    if meta.state = Sealed then begin
      h.(!n) <- (meta.live_padded * t.nchunks) + c;
      incr n
    end
  done;
  for i = (!n / 2) - 1 downto 0 do
    sift_down h !n i
  done;
  let budget = t.chunk_size - (2 * header_size) in
  let outputs_for bytes = Prism_sim.Bits.ceil_div (max 1 bytes) budget in
  (* Smallest victim set (least-live first) that nets at least one freed
     chunk; one pass per wakeup keeps each pass cheap and lets foreground
     work interleave. *)
  let rec take acc bytes k =
    if !n = 0 then []
    else begin
      let key = h.(0) in
      decr n;
      h.(0) <- h.(!n);
      sift_down h !n 0;
      let bytes = bytes + (key / t.nchunks) in
      let k = k + 1 in
      let acc = (key mod t.nchunks) :: acc in
      let n_out = if bytes = 0 then 0 else outputs_for bytes in
      if k >= 2 && n_out < k && n_out <= t.nfree then List.rev acc
      else take acc bytes k
    end
  in
  take [] 0 0

(* Ends of the greedy chunk batches of [m.values.(0 .. len - 1)], in
   order. *)
let plan_batches t m ~len =
  let budget = t.chunk_size - (2 * header_size) in
  let rec go i bytes ends =
    if i = len then if bytes > 0 then i :: ends else ends
    else begin
      let sz = padded (Bytes.length m.values.(i)) in
      if bytes + sz > budget && bytes > 0 then go (i + 1) sz (i :: ends)
      else go (i + 1) (bytes + sz) ends
    end
  in
  List.rev (go 0 0 [])

let gc_pass t ~relocate =
  let victims = pick_victims t in
  match victims with
  | [] -> false
  | _ ->
      Metric.Counter.incr t.gc_runs;
      (* Read whole victim chunks (large sequential reads), then gather the
         still-valid payloads in victim order; [starts.(k)] is where the
         [k]-th victim's begin. *)
      let m = t.gc_moves in
      clear_moves m;
      let starts = Array.make (List.length victims) 0 in
      List.iteri
        (fun k chunk ->
          starts.(k) <- m.count;
          let meta = t.chunks.(chunk) in
          let gen = meta.gen in
          if meta.live > 0 then begin
            let entry =
              {
                Io_uring.dir = Model.Read;
                size = t.chunk_size;
                action = (fun () -> read_chunk t chunk);
              }
            in
            Io_uring.submit_and_wait t.uring [ entry ];
            let data = t.chunk_buf in
            Array.iteri
              (fun slot s ->
                (* A slot may have been invalidated while we were reading;
                   skip it then. *)
                if is_valid t ~gen ~chunk ~slot then
                  add_move m ~id:s.backptr
                    ~value:(Bytes.sub data (s.off + header_size) s.len)
                    ~from_:(Location.vs_word ~vs:t.id ~gen ~chunk ~slot))
              meta.slots
          end)
        victims;
      (* Exact output planning on the real values. If the batches cannot
         fit in the currently free chunks, or the pass would not net a
         gain, drop the most-live victims (picked last, so their values
         are the tail of [m]) until it does. *)
      let rec shrink n_victims len =
        let ends = plan_batches t m ~len in
        let n_out = List.length ends in
        if n_victims < 2 then None
        else if n_out < n_victims && n_out <= t.nfree then
          Some (n_victims, ends)
        else shrink (n_victims - 1) starts.(n_victims - 1)
      in
      (match shrink (Array.length starts) m.count with
      | None -> false
      | Some (n_victims, ends) ->
          (* Reserve every output chunk up front — no suspension point
             between the feasibility check and the allocations, so the GC
             can never wedge mid-pass holding its victims hostage. *)
          let outputs = List.map (fun _ -> alloc_chunk t ~reserve:0) ends in
          ignore
            (List.fold_left2
               (fun pos chunk stop ->
                 install ~chunk t m ~pos ~len:(stop - pos) ~repoint:relocate
                   ~moved:(fun from_ ->
                     set_valid t ~gen:(Location.vs_gen from_)
                       ~chunk:(Location.vs_chunk from_)
                       ~slot:(Location.vs_slot from_) false);
                 stop)
               0 outputs ends
              : int);
          (* Recycle victims: the generation bump makes any stale
             reference fail its check and retry. *)
          List.iteri
            (fun k chunk -> if k < n_victims then release_chunk t chunk)
            victims;
          true)

let start_gc t ~relocate =
  if t.gc_running then invalid_arg "Value_storage.start_gc: already running";
  t.gc_running <- true;
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        Sync.Mailbox.recv t.gc_wakeup;
        let rec drain () =
          if
            t.nfree < gc_threshold t
            && Engine.with_span t.engine ~tid:t.gc_span_tid "vs.gc" (fun () ->
                   gc_pass t ~relocate)
          then drain ()
        in
        drain ();
        loop ()
      in
      loop ())

let recover t ~couple =
  let free = ref [] in
  let nfree = ref 0 in
  let metadata_bytes = ref 0 in
  for chunk = 0 to t.nchunks - 1 do
    read_chunk t chunk;
    let data = t.chunk_buf in
    let slots = ref [] in
    let pos = ref 0 in
    let stop = ref false in
    while (not !stop) && t.chunk_size - !pos >= header_size do
      let backptr = Int64.to_int (Bytes.get_int64_le data !pos) in
      let len = Int32.to_int (Bytes.get_int32_le data (!pos + 8)) in
      if backptr < 0 || len <= 0 || !pos + padded len > t.chunk_size then
        stop := true
      else begin
        slots := { backptr; off = !pos; len } :: !slots;
        pos := !pos + padded len
      end
    done;
    let slots = Array.of_list (List.rev !slots) in
    (* The scan only needs the per-value metadata, not the payloads. *)
    metadata_bytes :=
      !metadata_bytes
      + max 4096
          (Prism_sim.Bits.round_up
             ((Array.length slots + 1) * header_size)
             4096);
    let meta = t.chunks.(chunk) in
    meta.gen <- 0;
    if Array.length slots = 0 then begin
      meta.state <- Free;
      meta.slots <- [||];
      meta.valid <- [||];
      meta.live <- 0;
      meta.live_padded <- 0;
      free := chunk :: !free;
      incr nfree
    end
    else begin
      meta.state <- Sealed;
      meta.slots <- slots;
      meta.valid <- Array.make (Array.length slots) false;
      meta.live <- 0;
      meta.live_padded <- 0;
      Array.iteri
        (fun slot s ->
          let loc = Location.In_vs { vs = t.id; gen = 0; chunk; slot } in
          if couple ~hsit_id:s.backptr loc then begin
            meta.valid.(slot) <- true;
            meta.live <- meta.live + 1;
            meta.live_padded <- meta.live_padded + padded s.len
          end)
        slots;
      if meta.live = 0 then begin
        meta.state <- Free;
        meta.slots <- [||];
        meta.valid <- [||];
        free := chunk :: !free;
        incr nfree
      end
    end
  done;
  t.free_list <- List.rev !free;
  t.nfree <- !nfree;
  (* The metadata scan is issued as one large batched read (the paper
     parallelizes recovery; latency overlaps, bandwidth binds, §5.5). *)
  Model.access t.device Model.Read ~size:!metadata_bytes

let register_stats t stats ~prefix =
  Stats.register_counter stats (prefix ^ ".gc_runs") t.gc_runs;
  Stats.gauge_int stats (prefix ^ ".free_chunks") (fun () -> t.nfree);
  Stats.gauge_int stats (prefix ^ ".live_bytes") (fun () -> live_bytes t);
  Stats.gauge_int stats (prefix ^ ".resident_bytes") (fun () ->
      Ssd_image.resident_bytes t.image);
  Model.register_stats t.device stats ~prefix:(prefix ^ ".dev");
  Io_uring.register_stats t.uring stats ~prefix:(prefix ^ ".uring")
