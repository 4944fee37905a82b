(* Hierarchical named-metric registry.

   One registry lives on each engine; subsystems register their counters,
   gauges, histograms and timelines under stable dotted names
   ("prism.svc.hits", "kvell.device.ssd.bytes_written", ...). Reading a
   registry never touches the event queue, so telemetry is inert with
   respect to the simulation schedule. *)

type value =
  | Int of int
  | Float of float
  | Dist of { count : int; mean : float; p50 : int; p99 : int; max : int }

type metric =
  | Counter of Metric.Counter.t
  | Gauge of (unit -> value)
  | Histogram of Hist.t
  | Timeline of Metric.Timeline.t

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* "RocksDB-NVM" -> "rocksdb-nvm", "KVell(sync)" -> "kvell-sync": a store
   display name turned into a stable metric-name segment. *)
let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
      | _ ->
          if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '-'
          then Buffer.add_char b '-')
    name;
  let s = Buffer.contents b in
  let n = String.length s in
  if n > 0 && s.[n - 1] = '-' then String.sub s 0 (n - 1)
  else if n = 0 then "unnamed"
  else s

let find t name = Hashtbl.find_opt t.table name

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Stats.counter: %S registered as a non-counter" name)
  | None ->
      let c = Metric.Counter.create () in
      Hashtbl.replace t.table name (Counter c);
      c

(* Adopt an existing counter under [name]. Re-registering the same name
   replaces the binding (last wins): per-store prefixes make collisions a
   deliberate aliasing, e.g. two stores sharing a device. *)
let register_counter t name c = Hashtbl.replace t.table name (Counter c)

let gauge t name f = Hashtbl.replace t.table name (Gauge f)

let gauge_int t name f = gauge t name (fun () -> Int (f ()))

let gauge_float t name f = gauge t name (fun () -> Float (f ()))

(* Host-process GC gauges. These read wall-process state, not simulated
   state: they exist so a --stats-json export records how much real
   allocation a run cost, next to the virtual-time metrics. Reading
   [Gc.quick_stat] never triggers a collection and never touches the
   event queue, so the determinism invariant holds.

   OCaml 5 semantics (measured on 5.1.1): [Gc.minor_words ()] counts
   only the calling domain — a terminated domain's words are never
   folded into another domain's counter — while [Gc.quick_stat ()]
   reports the current domain {e plus} already-terminated domains. So:

   - minor_words: gauge reads the domain-local counter plus the
     cross-domain accumulator below; fleet workers flush their deltas
     via [note_foreign_gc] after every job (no double count, since the
     local counter never absorbs other domains).
   - minor/major_collections: gauge reads [quick_stat], which absorbs
     terminated domains by itself — workers must NOT flush collection
     deltas for domains that will be joined, or they would be counted
     twice. The accumulators accept them only for callers managing
     domains that are never joined. Live unflushed workers are invisible
     until their next flush; that slack is documented, not corrected. *)

let foreign_minor_words = Atomic.make 0
let foreign_minor_collections = Atomic.make 0
let foreign_major_collections = Atomic.make 0

let note_foreign_gc ~minor_words ~minor_collections ~major_collections =
  if minor_words > 0 then
    ignore (Atomic.fetch_and_add foreign_minor_words minor_words);
  if minor_collections > 0 then
    ignore (Atomic.fetch_and_add foreign_minor_collections minor_collections);
  if major_collections > 0 then
    ignore (Atomic.fetch_and_add foreign_major_collections major_collections)

let foreign_gc_words () = Atomic.get foreign_minor_words

let register_gc t =
  gauge_float t "process.gc.minor_words" (fun () ->
      Gc.minor_words () +. float_of_int (Atomic.get foreign_minor_words));
  gauge_int t "process.gc.minor_collections" (fun () ->
      (Gc.quick_stat ()).Gc.minor_collections
      + Atomic.get foreign_minor_collections);
  gauge_int t "process.gc.major_collections" (fun () ->
      (Gc.quick_stat ()).Gc.major_collections
      + Atomic.get foreign_major_collections);
  (* [heap_words] is a view of the major heap, which OCaml 5 domains
     share — no foreign correction needed (or possible). *)
  gauge_int t "process.gc.heap_words" (fun () ->
      (Gc.quick_stat ()).Gc.heap_words)

let histogram t name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) -> h
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Stats.histogram: %S registered as a non-histogram"
           name)
  | None ->
      let h = Hist.create () in
      Hashtbl.replace t.table name (Histogram h);
      h

let register_histogram t name h = Hashtbl.replace t.table name (Histogram h)

let timeline t name ~interval =
  match Hashtbl.find_opt t.table name with
  | Some (Timeline tl) -> tl
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Stats.timeline: %S registered as a non-timeline" name)
  | None ->
      let tl = Metric.Timeline.create ~interval in
      Hashtbl.replace t.table name (Timeline tl);
      tl

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.table []
  |> List.sort String.compare

let value_of = function
  | Counter c -> Int (Metric.Counter.value c)
  | Gauge f -> f ()
  | Histogram h ->
      Dist
        {
          count = Hist.count h;
          mean = Hist.mean h;
          p50 = Hist.median h;
          p99 = Hist.percentile h 99.0;
          max = Hist.max_value h;
        }
  | Timeline tl -> Int (Metric.Timeline.total tl)

let snapshot t =
  names t
  |> List.map (fun name -> (name, value_of (Hashtbl.find t.table name)))

(* Sampled integer value of a metric; 0 when absent. Lets consumers read
   "<prefix>.device.ssd.bytes_written" without knowing whether the store
   registered a counter or a gauge there. *)
let get_int t name =
  match find t name with
  | None -> 0
  | Some m -> (
      match value_of m with
      | Int n -> n
      | Float f -> int_of_float f
      | Dist d -> d.count)

(* Numeric difference per name: counters/gauges subtract; distributions
   subtract counts but keep [after]'s shape (percentiles are cumulative).
   Names absent from [before] pass through unchanged. *)
let diff ~before ~after =
  List.map
    (fun (name, av) ->
      match (List.assoc_opt name before, av) with
      | Some (Int b), Int a -> (name, Int (a - b))
      | Some (Float b), Float a -> (name, Float (a -. b))
      | Some (Int b), Float a -> (name, Float (a -. float_of_int b))
      | Some (Float b), Int a -> (name, Float (float_of_int a -. b))
      | Some (Dist d0), Dist d -> (name, Dist { d with count = d.count - d0.count })
      | _, v -> (name, v))
    after

(* Counters zero, histograms and timelines empty; gauges are read-only
   views of live state and are left alone. *)
let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Metric.Counter.reset c
      | Histogram h -> Hist.reset h
      | Timeline tl -> Metric.Timeline.reset tl
      | Gauge _ -> ())
    t.table

(* ---- rendering ---- *)

let json_float f =
  Json.Num
    (if Float.is_nan f then "0"
     else if f = Float.infinity then "1e308"
     else if f = Float.neg_infinity then "-1e308"
     else if Float.is_integer f && Float.abs f < 1e15 then
       Printf.sprintf "%.0f" f
     else Printf.sprintf "%.6g" f)

let json_of_value = function
  | Int n -> Json.Int n
  | Float f -> json_float f
  | Dist { count; mean; p50; p99; max } ->
      Json.Obj
        [
          ("count", Json.Int count); ("mean", json_float mean);
          ("p50", Json.Int p50); ("p99", Json.Int p99); ("max", Json.Int max);
        ]

let to_json t =
  Json.compact
    (Json.Obj
       (List.map
          (fun name ->
            ( name,
              match Hashtbl.find t.table name with
              | Timeline tl ->
                  (* Full windows, not just the total: [[start, count], ...]. *)
                  Json.Arr
                    (List.map
                       (fun (start, count, _marks) ->
                         Json.Arr [ json_float start; Json.Int count ])
                       (Metric.Timeline.windows tl))
              | m -> json_of_value (value_of m) ))
          (names t)))

let pp_value fmt = function
  | Int n -> Format.fprintf fmt "%d" n
  | Float f -> Format.fprintf fmt "%.6g" f
  | Dist { count; mean; p50; p99; max } ->
      Format.fprintf fmt "count=%d mean=%.1f p50=%d p99=%d max=%d" count mean
        p50 p99 max

let pp fmt t =
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%-48s %a@." name pp_value v)
    (snapshot t)
