open Prism_sim
open Prism_device

let page_size = 4096

type request =
  | Put of string * bytes
  | Get of string
  | Delete of string
  | Range of string * int

type reply =
  | Value of bytes option
  | Existed of bool
  | Items of (string * bytes) list
  | Done

type job = { request : request; reply : reply Sync.Ivar.t }

type worker = {
  wid : int;
  device : Model.t;
  mutable uring : Io_uring.t;
  index : (int * int) Prism_index.Btree.t; (* key -> (page, slot) *)
  index_nodes : int ref;
  contents : (string, bytes) Hashtbl.t; (* durable page payloads, by key *)
  cache : (int, unit) Lru.t; (* page cache: page number -> present *)
  mutable queue : job Sync.Mailbox.t;
  (* Slab allocation: per size-class open page and free-slot lists. *)
  free_slots : (int, (int * int) Queue.t) Hashtbl.t; (* class -> slots *)
  mutable next_page : int;
  open_pages : (int, int * int) Hashtbl.t; (* class -> (page, used) *)
}

type t = {
  engine : Engine.t;
  cost : Cost.t;
  queue_depth : int;
  workers : worker array;
}

let size_class len = Prism_sim.Bits.round_up (max 64 (len + 32)) 256

let slots_per_page cls = max 1 (page_size / cls)

let make_worker engine ~cost ~wid ~device ~queue_depth ~cache_bytes =
  let index_nodes = ref 0 in
  {
    wid;
    device;
    uring = Io_uring.create engine device ~queue_depth ~cost;
    index =
      Prism_index.Btree.create
        ~on_access:(fun _ _ -> incr index_nodes)
        ();
    index_nodes;
    contents = Hashtbl.create 4096;
    cache =
      Lru.create ~capacity:(max page_size cache_bytes) ~weight:(fun _ -> page_size) ();
    queue = Sync.Mailbox.create ();
    free_slots = Hashtbl.create 8;
    next_page = 0;
    open_pages = Hashtbl.create 8;
  }

let charge_index t w =
  let n = !(w.index_nodes) in
  w.index_nodes := 0;
  if n > 0 then Engine.delay (float_of_int n *. t.cost.Cost.index_node)

let alloc_slot w len =
  let cls = size_class len in
  match Hashtbl.find_opt w.free_slots cls with
  | Some q when not (Queue.is_empty q) -> Queue.pop q
  | _ -> (
      match Hashtbl.find_opt w.open_pages cls with
      | Some (page, used) when used < slots_per_page cls ->
          Hashtbl.replace w.open_pages cls (page, used + 1);
          (page, used)
      | _ ->
          let page = w.next_page in
          w.next_page <- page + 1;
          Hashtbl.replace w.open_pages cls (page, 1);
          (page, 0))

let free_slot w len slot =
  let cls = size_class len in
  let q =
    match Hashtbl.find_opt w.free_slots cls with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add w.free_slots cls q;
        q
  in
  Queue.add slot q

(* One worker round: drain up to queue-depth jobs, batch the page reads
   they need, apply mutations, batch the page writes, then reply. *)
let worker_round t w jobs =
  (* Phase 1: figure out which pages must be read. *)
  let needed_reads = Hashtbl.create 16 in
  let need_page page =
    if not (Lru.mem w.cache page) then Hashtbl.replace needed_reads page ()
  in
  List.iter
    (fun job ->
      match job.request with
      | Get key | Put (key, _) | Delete key -> (
          let loc = Prism_index.Btree.find w.index key in
          charge_index t w;
          match loc with
          | Some (page, _) -> need_page page
          | None -> ())
      | Range (from, count) ->
          let bindings = Prism_index.Btree.scan w.index ~from ~count in
          charge_index t w;
          List.iter (fun (_, (page, _)) -> need_page page) bindings)
    jobs;
  let reads =
    Hashtbl.fold (fun page () acc -> page :: acc) needed_reads []
  in
  if reads <> [] then begin
    let entries =
      List.map
        (fun _page ->
          { Io_uring.dir = Model.Read; size = page_size; action = (fun () -> ()) })
        reads
    in
    ignore (Io_uring.submit_and_wait w.uring entries);
    List.iter (fun page -> Lru.add w.cache page ()) reads
  end;
  (* Phase 2: apply operations and gather dirty pages. *)
  let dirty = Hashtbl.create 16 in
  let replies =
    List.map
      (fun job ->
        (* Per-request worker overhead: dequeue, parse, reply posting. *)
        Engine.delay (6.0 *. t.cost.Cost.cache_op);
        match job.request with
        | Get key ->
            Engine.delay t.cost.Cost.cache_op;
            (job, Value (Hashtbl.find_opt w.contents key))
        | Put (key, value) -> (
            Engine.delay (Cost.memcpy t.cost (Bytes.length value));
            let loc = Prism_index.Btree.find w.index key in
            charge_index t w;
            match loc with
            | Some (page, _slot) ->
                Hashtbl.replace w.contents key value;
                Hashtbl.replace dirty page ();
                (job, Done)
            | None ->
                let page, slot = alloc_slot w (Bytes.length value) in
                Hashtbl.replace w.contents key value;
                ignore (Prism_index.Btree.insert w.index key (page, slot));
                charge_index t w;
                Hashtbl.replace dirty page ();
                (job, Done))
        | Delete key -> (
            let loc = Prism_index.Btree.find w.index key in
            charge_index t w;
            match loc with
            | None -> (job, Existed false)
            | Some (page, slot) ->
                let len =
                  match Hashtbl.find_opt w.contents key with
                  | Some v -> Bytes.length v
                  | None -> 0
                in
                Hashtbl.remove w.contents key;
                ignore (Prism_index.Btree.delete w.index key);
                charge_index t w;
                free_slot w len (page, slot);
                Hashtbl.replace dirty page ();
                (job, Existed true))
        | Range (from, count) ->
            let bindings = Prism_index.Btree.scan w.index ~from ~count in
            charge_index t w;
            let items =
              List.filter_map
                (fun (k, _) ->
                  match Hashtbl.find_opt w.contents k with
                  | Some v -> Some (k, v)
                  | None -> None)
                bindings
            in
            (job, Items items))
      jobs
  in
  let writes = Hashtbl.fold (fun page () acc -> page :: acc) dirty [] in
  if writes <> [] then begin
    let entries =
      List.map
        (fun page ->
          Lru.add w.cache page ();
          { Io_uring.dir = Model.Write; size = page_size; action = (fun () -> ()) })
        writes
    in
    ignore (Io_uring.submit_and_wait w.uring entries)
  end;
  List.iter (fun (job, reply) -> Sync.Ivar.fill job.reply reply) replies

let start_worker t w =
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        let first = Sync.Mailbox.recv w.queue in
        let jobs = ref [ first ] in
        let n = ref 1 in
        let rec drain () =
          if !n < t.queue_depth then
            match Sync.Mailbox.try_recv w.queue with
            | Some job ->
                jobs := job :: !jobs;
                incr n;
                drain ()
            | None -> ()
        in
        drain ();
        worker_round t w (List.rev !jobs);
        loop ()
      in
      loop ())

let create engine ~cost ~rng ~ssd_specs ~workers_per_ssd ~queue_depth
    ~page_cache_bytes =
  ignore rng;
  if ssd_specs = [] then invalid_arg "Kvell.create: no SSDs";
  if workers_per_ssd <= 0 then invalid_arg "Kvell.create: workers_per_ssd";
  let devices = List.map (fun spec -> Model.create engine spec) ssd_specs in
  let nworkers = List.length devices * workers_per_ssd in
  let cache_each = max page_size (page_cache_bytes / nworkers) in
  let workers =
    Array.init nworkers (fun wid ->
        let device = List.nth devices (wid / workers_per_ssd) in
        make_worker engine ~cost ~wid ~device ~queue_depth
          ~cache_bytes:cache_each)
  in
  let t = { engine; cost; queue_depth; workers } in
  Array.iter (fun w -> start_worker t w) workers;
  let reg = Engine.stats engine in
  Stats.gauge_int reg "kvell.cache.hits" (fun () ->
      Array.fold_left (fun acc w -> acc + Lru.hits w.cache) 0 t.workers);
  Stats.gauge_int reg "kvell.cache.misses" (fun () ->
      Array.fold_left (fun acc w -> acc + Lru.misses w.cache) 0 t.workers);
  List.iteri
    (fun i device ->
      Model.register_stats device reg
        ~prefix:(Printf.sprintf "kvell.device.ssd.%d" i))
    devices;
  Stats.gauge_int reg "kvell.device.ssd.bytes_written" (fun () ->
      List.fold_left (fun acc d -> acc + Model.bytes_written d) 0 devices);
  t

let workers t = Array.length t.workers

let owner t key =
  t.workers.(Prism_index.Strhash.bucket key (Array.length t.workers))

let enqueue t w request =
  let reply = Sync.Ivar.create () in
  (* Cross-core handoff into the worker's request queue. *)
  Engine.delay ((4.0 *. t.cost.Cost.cache_op) +. (2.0 *. t.cost.Cost.atomic_op));
  Sync.Mailbox.send w.queue { request; reply };
  reply

let submit t w request = Sync.Ivar.read (enqueue t w request)

let put t key value =
  if Bytes.length value = 0 then invalid_arg "Kvell.put: empty value";
  match submit t (owner t key) (Put (key, value)) with
  | Done -> ()
  | Value _ | Existed _ | Items _ -> assert false

let put_async t key value =
  if Bytes.length value = 0 then invalid_arg "Kvell.put_async: empty value";
  let reply = enqueue t (owner t key) (Put (key, value)) in
  let done_ = Sync.Ivar.create () in
  (* Bridge the typed reply to a unit completion without blocking the
     caller: a tiny watcher process. *)
  Engine.spawn t.engine (fun () ->
      match Sync.Ivar.read reply with
      | Done -> Sync.Ivar.fill done_ ()
      | Value _ | Existed _ | Items _ -> assert false);
  done_

let get t key =
  match submit t (owner t key) (Get key) with
  | Value v -> v
  | Done | Existed _ | Items _ -> assert false

let delete t key =
  match submit t (owner t key) (Delete key) with
  | Existed e -> e
  | Done | Value _ | Items _ -> assert false

(* Scans fan out to every worker (the key space is hash partitioned, so
   every worker may hold part of the range) and merge. *)
let scan t ~from ~count =
  let replies =
    Array.to_list t.workers
    |> List.map (fun w ->
           let reply = Sync.Ivar.create () in
           Sync.Mailbox.send w.queue { request = Range (from, count); reply };
           reply)
  in
  let all =
    List.concat_map
      (fun r ->
        match Sync.Ivar.read r with
        | Items items -> items
        | Done | Value _ | Existed _ -> assert false)
      replies
  in
  Engine.delay
    (float_of_int (List.length all) *. t.cost.Cost.compare_key *. 2.0);
  List.sort (fun (a, _) (b, _) -> String.compare a b) all
  |> List.filteri (fun i _ -> i < count)

let ssd_bytes_written t =
  (* Workers sharing an SSD share a Model; avoid double counting. *)
  let seen = ref [] in
  Array.fold_left
    (fun acc w ->
      if List.memq w.device !seen then acc
      else begin
        seen := w.device :: !seen;
        acc + Model.bytes_written w.device
      end)
    0 t.workers

let crash t =
  (* Power failure: DRAM state — page cache, request queues, in-flight
     rings — is gone; [contents] plays the durable page image.
     [worker_round] applies mutations before submitting their page
     writes, so the image may hold writes that were in flight but never
     acknowledged; the checker's oracle admits those as pending outcomes.
     The caller must [Engine.clear_pending] first so the old worker loops
     (and any blocked clients) are dead, then respawning here gives each
     worker a fresh queue and ring. *)
  Array.iter
    (fun w ->
      Lru.clear w.cache;
      w.queue <- Sync.Mailbox.create ();
      w.uring <-
        Io_uring.create t.engine w.device ~queue_depth:t.queue_depth
          ~cost:t.cost;
      w.index_nodes := 0)
    t.workers;
  Array.iter (fun w -> start_worker t w) t.workers

let recover t =
  (* Each worker scans its pages to rebuild the index; workers proceed in
     parallel, so recovery time is the slowest worker's scan. *)
  let latch = Sync.Latch.create (Array.length t.workers) in
  Array.iter
    (fun w ->
      Engine.spawn t.engine (fun () ->
          let pages = max 1 w.next_page in
          Model.access w.device Model.Read ~size:(pages * page_size);
          Engine.delay
            (float_of_int (Hashtbl.length w.contents)
            *. t.cost.Cost.index_node);
          Sync.Latch.arrive latch))
    t.workers;
  Sync.Latch.wait latch

let quiesce _t = ()
