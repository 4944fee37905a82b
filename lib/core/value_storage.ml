open Prism_sim
open Prism_device
open Prism_media

let header_size = 16

let sector = 512

let terminator = -1L

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

let write_into_chunk t chunk values =
  (match values with
  | [] -> invalid_arg "Value_storage.write_chunk: empty"
  | _ -> ());
  let total =
    List.fold_left
      (fun acc (_, v) ->
        if Bytes.length v = 0 then
          invalid_arg "Value_storage.write_chunk: empty value";
        acc + padded (Bytes.length v))
      0 values
  in
  if total + header_size > t.chunk_size then
    invalid_arg "Value_storage.write_chunk: values exceed chunk";
  let buf = Bytes.make t.chunk_size '\000' in
  let slots =
    Array.make (List.length values) { backptr = 0; off = 0; len = 0 }
  in
  let pos = ref 0 in
  List.iteri
    (fun i (hsit_id, value) ->
      let len = Bytes.length value in
      Bytes.set_int64_le buf !pos (Int64.of_int hsit_id);
      Bytes.set_int32_le buf (!pos + 8) (Int32.of_int len);
      Bytes.blit value 0 buf (!pos + header_size) len;
      slots.(i) <- { backptr = hsit_id; off = !pos; len };
      pos := !pos + padded len)
    values;
  Bytes.set_int64_le buf !pos terminator;
  let meta = t.chunks.(chunk) in
  meta.state <- Open;
  meta.slots <- slots;
  meta.valid <- Array.make (Array.length slots) false;
  meta.live <- 0;
  meta.live_padded <- 0;
  (* A partially filled chunk only transfers its used pages; the log is
     still written in large sequential extents. (At paper scale chunks are
     always full — the PWB is three orders of magnitude larger than a
     chunk — but at simulation scale charging the whole chunk would
     fabricate write amplification.) *)
  let io_size =
    min t.chunk_size
      (Prism_sim.Bits.round_up (!pos + header_size) 4096)
  in
  let entry =
    {
      Io_uring.dir = Model.Write;
      size = io_size;
      action =
        (fun () -> Ssd_image.write t.image ~off:(chunk * t.chunk_size) buf);
    }
  in
  match Io_uring.submit t.uring [ entry ] with
  | [ ivar ] -> (chunk, meta.gen, ivar)
  | _ -> assert false

let write_chunk t values =
  let chunk = alloc_chunk t ~reserve:1 in
  write_into_chunk t chunk values

let seal t ~chunk =
  let meta = t.chunks.(chunk) in
  if meta.state = Open then meta.state <- Sealed

(* Prism randomly picks one of the idle Value Storages (no in-flight
   requests); if all are busy, any random one (§5.2). *)
let pick rng storages =
  match Array.to_list storages |> List.filter is_idle with
  | [] -> storages.(Rng.int rng (Array.length storages))
  | idle -> List.nth idle (Rng.int rng (List.length idle))

let get_slot t ~gen ~chunk ~slot =
  if chunk < 0 || chunk >= t.nchunks then None
  else begin
    let meta = t.chunks.(chunk) in
    if meta.state = Free || meta.gen <> gen then None
    else if slot < 0 || slot >= Array.length meta.slots then None
    else Some meta.slots.(slot)
  end

let slot_backptr t ~gen ~chunk ~slot =
  Option.map (fun s -> s.backptr) (get_slot t ~gen ~chunk ~slot)

let read_entry t ~gen ~chunk ~slot ~cell =
  match get_slot t ~gen ~chunk ~slot with
  | None -> None
  | Some s ->
      let io_size = Prism_sim.Bits.round_up (header_size + s.len) sector in
      Some
        {
          Io_uring.dir = Model.Read;
          size = io_size;
          action =
            (fun () ->
              (* Gen re-check at completion: the chunk may have been
                 recycled while the IO was in flight. *)
              if t.chunks.(chunk).gen = gen then begin
                let off = (chunk * t.chunk_size) + s.off + header_size in
                cell := Some (Ssd_image.read t.image ~off ~len:s.len)
              end);
        }

let read_run_entry t ~gen ~chunk ~slots =
  let resolved =
    List.filter_map
      (fun (slot, cell) ->
        Option.map (fun s -> (s, cell)) (get_slot t ~gen ~chunk ~slot))
      slots
  in
  match resolved with
  | [] -> None
  | first :: _ ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (s, _) ->
            (min lo s.off, max hi (s.off + header_size + s.len)))
          (let s, _ = first in
           (s.off, s.off + header_size + s.len))
          resolved
      in
      let io_size = Prism_sim.Bits.round_up (hi - lo) sector in
      Some
        {
          Io_uring.dir = Model.Read;
          size = io_size;
          action =
            (fun () ->
              if t.chunks.(chunk).gen = gen then
                List.iter
                  (fun (s, cell) ->
                    let off = (chunk * t.chunk_size) + s.off + header_size in
                    cell := Some (Ssd_image.read t.image ~off ~len:s.len))
                  resolved);
        }

let read_slot_sync t ~gen ~chunk ~slot =
  let cell = ref None in
  match read_entry t ~gen ~chunk ~slot ~cell with
  | None -> None
  | Some entry ->
      ignore (Io_uring.submit_and_wait t.uring [ entry ]);
      !cell

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
let install ?chunk t values ~repoint ~moved =
  let chunk =
    match chunk with Some c -> c | None -> alloc_chunk t ~reserve:1
  in
  let chunk, gen, done_ =
    write_into_chunk t chunk
      (List.map (fun (hsit_id, value, _) -> (hsit_id, value)) values)
  in
  ignore (Sync.Ivar.read done_);
  List.iteri
    (fun slot (hsit_id, value, from_) ->
      let to_ = Location.In_vs { vs = t.id; gen; chunk; slot } in
      if repoint ~hsit_id ~from_ ~to_ then begin
        set_valid t ~gen ~chunk ~slot true;
        moved ~from_ ~value
      end)
    values;
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

(* Greedy order: least live bytes first, then lowest chunk index. *)
let compare_candidates ((l1 : int), (c1 : int)) (l2, c2) =
  if l1 <> l2 then Int.compare l1 l2 else Int.compare c1 c2

(* Pick victim chunks greedily by live payload (§5.2). Compaction may
   write several output chunks; the pick only requires a net gain (more
   victims than outputs) and enough free chunks to host the outputs — at
   high occupancy this still makes progress where a single-output policy
   would wedge. *)
let pick_victims t =
  let candidates = ref [] in
  Array.iteri
    (fun c meta ->
      if meta.state = Sealed then
        candidates := (meta.live_padded, c) :: !candidates)
    t.chunks;
  let sorted = List.sort compare_candidates !candidates in
  let budget = t.chunk_size - (2 * header_size) in
  let outputs_for bytes = Prism_sim.Bits.ceil_div (max 1 bytes) budget in
  (* Smallest victim set (least-live first) that nets at least one freed
     chunk; one pass per wakeup keeps each pass cheap and lets foreground
     work interleave. *)
  let rec take acc bytes n = function
    | [] -> []
    | (live, c) :: rest ->
        let bytes = bytes + live in
        let n = n + 1 in
        let acc = c :: acc in
        let n_out = if bytes = 0 then 0 else outputs_for bytes in
        if n >= 2 && n_out < n && n_out <= t.nfree then List.rev acc
        else take acc bytes n rest
  in
  take [] 0 0 sorted

(* Plan greedy chunk batches for a value list; returns batches in order. *)
let plan_batches t values =
  let budget = t.chunk_size - (2 * header_size) in
  let batches = ref [] in
  let current = ref [] in
  let bytes = ref 0 in
  let flush () =
    match List.rev !current with
    | [] -> ()
    | b ->
        batches := b :: !batches;
        current := [];
        bytes := 0
  in
  List.iter
    (fun ((_, v, _) as entry) ->
      let sz = padded (Bytes.length v) in
      if !bytes + sz > budget && !current <> [] then flush ();
      current := entry :: !current;
      bytes := !bytes + sz)
    values;
  flush ();
  List.rev !batches

let gc_pass t ~relocate =
  let victims = pick_victims t in
  match victims with
  | [] -> false
  | _ ->
      Metric.Counter.incr t.gc_runs;
      (* Read whole victim chunks (large sequential reads), then gather the
         still-valid payloads, remembering which victim each came from. *)
      let gathered = ref [] in
      List.iter
        (fun chunk ->
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
            ignore (Io_uring.submit_and_wait t.uring [ entry ]);
            let data = t.chunk_buf in
            Array.iteri
              (fun slot s ->
                (* A slot may have been invalidated while we were reading;
                   skip it then. *)
                if is_valid t ~gen ~chunk ~slot then
                  gathered :=
                    ( s.backptr,
                      Bytes.sub data (s.off + header_size) s.len,
                      Location.In_vs { vs = t.id; gen; chunk; slot } )
                    :: !gathered)
              meta.slots
          end)
        victims;
      (* Exact output planning on the real values. If the batches cannot
         fit in the currently free chunks, or the pass would not net a
         gain, drop the most-live victims (they were appended last by the
         least-live-first picker) until it does. *)
      let victim_of (_, _, loc) =
        match loc with
        | Location.In_vs { chunk; _ } -> chunk
        | Location.Nowhere | Location.In_pwb _ -> -1
      in
      let rec shrink victims gathered =
        let batches = plan_batches t (List.rev gathered) in
        let n_out = List.length batches in
        let n_victims = List.length victims in
        if n_victims < 2 then None
        else if n_out < n_victims && n_out <= t.nfree then
          Some (victims, batches)
        else begin
          match List.rev victims with
          | [] -> None
          | worst :: rest_rev ->
              let victims = List.rev rest_rev in
              let gathered =
                List.filter (fun entry -> victim_of entry <> worst) gathered
              in
              shrink victims gathered
        end
      in
      (match shrink victims !gathered with
      | None -> false
      | Some (victims, batches) ->
          (* Reserve every output chunk up front — no suspension point
             between the feasibility check and the allocations, so the GC
             can never wedge mid-pass holding its victims hostage. *)
          let outputs =
            List.map (fun _ -> alloc_chunk t ~reserve:0) batches
          in
          List.iter2
            (fun chunk batch ->
              install ~chunk t batch ~repoint:relocate
                ~moved:(fun ~from_ ~value:_ ->
                  match from_ with
                  | Location.In_vs { gen; chunk; slot; _ } ->
                      set_valid t ~gen ~chunk ~slot false
                  | Location.Nowhere | Location.In_pwb _ -> ()))
            outputs batches;
          (* Recycle victims: the generation bump makes any stale
             reference fail its check and retry. *)
          List.iter (fun chunk -> release_chunk t chunk) victims;
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
