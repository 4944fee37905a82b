(* Measuring one workload: bare runs report the end-to-end metrics,
   traced runs the per-layer metrics. *)

open Rounds

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** every end-to-end or per-layer metric *)
  info : (string * string) list;  (** printed, not judged *)
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of this process (VmHWM), MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
        | None -> failwith "benchmark: no VmHWM in /proc/self/status"
      in
      find ())

let min_rounds = 3

(* Repeat [f] until [seconds] of wall time would be exceeded by another
   round like the last, but at least [min_rounds] times. Also returns the
   peak RSS over the first [min_rounds] rounds: later rounds reuse a heap
   that has grown a little, so the process peak would rise with the
   number of rounds, that is with host speed. *)
let repeat ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rss = ref nan in
  let rec go acc i =
    let t = Unix.gettimeofday () in
    let r = f i in
    let now = Unix.gettimeofday () in
    let acc = r :: acc in
    if i + 1 = min_rounds then rss := peak_rss_mb ();
    if i + 1 >= min_rounds && now -. t0 +. (now -. t) > seconds then List.rev acc
    else go acc (i + 1)
  in
  let rounds = go [] 0 in
  (rounds, !rss)

let kind_names =
  [
    (Inputs.Get, "get");
    (Inputs.Update, "update");
    (Inputs.Scan, "scan");
    (Inputs.Insert, "insert");
    (Inputs.Batch, "txn");
  ]

(* Mean of [sorted.(from ..)], in us. *)
let mean_us sorted from =
  let n = Array.length sorted - from in
  let sum = ref 0 in
  for i = from to Array.length sorted - 1 do
    sum := !sum + sorted.(i)
  done;
  float_of_int !sum /. float_of_int (max 1 n) /. 1e3

(* Virtual-time end-to-end metrics of a checked round, plus per-op-kind
   percentiles (with sample counts) as information. *)
let virtual_metrics (r : round) (inp : inputs) =
  let s = sorted_lat r inp in
  let metrics =
    [
      ("vkops", vkops r);
      ("lat_mean_us", mean_us s 0);
      ("lat_tail99_us", mean_us s (Array.length s * 99 / 100));
      ("waf", waf r);
      ("recover_ms", float_of_int (Option.value r.recover_ns ~default:0) /. 1e6);
    ]
  in
  let info =
    List.concat_map
      (fun (kind, name) ->
        let s = sorted_lat ~kind r inp in
        let n = Array.length s in
        if n = 0 then []
        else
          List.map
            (fun (p, label) ->
              ( Printf.sprintf "%s_%s_us" name label,
                match percentile s p with
                | Some ns -> Printf.sprintf "%.3f us n=%d" (float_of_int ns /. 1e3) n
                | None -> Printf.sprintf "n/a n=%d" n ))
            [ (50.0, "p50"); (99.0, "p99"); (99.9, "p999") ])
      kind_names
  in
  (metrics, info)

let rate ops cpu = float_of_int ops /. cpu /. 1e3

(* Host CPU seconds of the work split into [parts], with interference
   removed. The rounds of a run repeat identical work part by part, and
   other tenants of the host only ever slow a part down, so each part is
   charged its fastest time across rounds: the repository's best-of-reps
   rule (bench/perf.ml) at part granularity. *)
let best_cpu parts =
  let n = List.fold_left (fun m a -> min m (Array.length a)) max_int parts in
  let total = ref 0.0 in
  for j = 0 to n - 1 do
    total := !total +. List.fold_left (fun m a -> Float.min m a.(j)) infinity parts
  done;
  (n, !total)

let seeds_of seed n =
  let r = Inputs.stream seed "walks" in
  List.init n (fun _ -> Inputs.next r)

(* The bare run of a store workload: round 0 also checks outputs across
   a crash; later rounds repeat the measurement. All rounds must agree in
   virtual time. *)
let bare_store inp ~seconds =
  let rounds, rss = repeat ~seconds (fun i -> round ~checks:(i = 0) inp) in
  let first = List.hd rounds in
  let d0 = digest first inp in
  let agree = List.for_all (fun r -> digest r inp = d0) rounds in
  let vm, info = virtual_metrics first inp in
  let host =
    [
      ( "host_kops",
        let chunks, cpu = best_cpu (List.map (fun (r : round) -> r.chunk_cpu) rounds) in
        rate (chunks * first.chunk_ops) cpu );
      ( "minor_words_per_op",
        median (List.map (fun (r : round) -> r.words /. float_of_int r.n) rounds) );
      ("peak_rss_mb", rss);
      ("setup_s", median (List.map (fun (r : round) -> r.setup_cpu) rounds));
    ]
  in
  let failed = List.fold_left (fun a (r : round) -> a + r.failed) 0 rounds in
  List.iter prerr_endline first.notes;
  {
    correct = agree && failed = 0;
    attempted = List.fold_left (fun a (r : round) -> a + r.attempted) 0 rounds;
    failed;
    metrics = host @ vm;
    info =
      info
      @ [
          ("rounds", string_of_int (List.length rounds));
          ("rounds_agree", string_of_bool agree);
          ("virtual_digest", d0);
        ];
  }

let bare_check ~walk:cfg ~walks ~classes ~replica ~seed ~seconds =
  let rep = inputs replica ~seed in
  let r = round ~checks:true rep in
  let vm, info = virtual_metrics r rep in
  let seeds = seeds_of seed walks in
  let ws, rss =
    repeat ~seconds (fun i -> walk ~confirm:(i = 0) cfg ~seeds ~max_classes:classes)
  in
  let d0 = walk_digest (List.hd ws) in
  let agree = List.for_all (fun w -> walk_digest w = d0) ws in
  let host =
    [
      ( "host_kops",
        rate (List.hd ws).ops (snd (best_cpu (List.map (fun (w : walk) -> w.walk_cpu) ws))) );
      ( "minor_words_per_op",
        median (List.map (fun (w : walk) -> w.words /. float_of_int w.ops) ws) );
      ("peak_rss_mb", rss);
      ("setup_s", median (List.map (fun (w : walk) -> w.setup_cpu) ws));
    ]
  in
  let unconfirmed = List.fold_left (fun a (w : walk) -> a + w.unconfirmed) 0 ws in
  List.iter prerr_endline r.notes;
  {
    correct = agree && r.failed = 0 && unconfirmed = 0;
    attempted = r.attempted + List.fold_left (fun a (w : walk) -> a + w.ops) 0 ws;
    failed = r.failed + unconfirmed;
    metrics = host @ vm;
    info =
      info
      @ [
          ("walk_rounds", string_of_int (List.length ws));
          ("violations", string_of_int (List.hd ws).violations);
          ("walk_digest", d0);
          ("replica_digest", digest r rep);
        ];
  }

(* The traced run: a bare and a traced round of one seed (which must agree
   byte for byte in virtual time), the layers timed in isolation, and the
   driver's own floor. *)
let traced ?check inp =
  let w =
    Option.map
      (fun (cfg, seeds, classes) -> walk ~confirm:true cfg ~seeds ~max_classes:classes)
      check
  in
  let bare = round inp in
  let tr = round ~traced:true inp in
  let agree = digest bare inp = digest tr inp in
  let micro = Layers.micro inp in
  let driver = Layers.driver_floor inp in
  let walk_layers =
    match w with
    | Some w -> Layers.of_walk w
    | None -> Layers.no_walk
  in
  let unconfirmed = match w with Some w -> w.unconfirmed | None -> 0 in
  let failed = bare.failed + tr.failed + unconfirmed in
  {
    correct = agree && failed = 0;
    attempted = bare.attempted + tr.attempted;
    failed;
    metrics = Layers.metrics ~bare ~traced:tr ~micro ~driver ~walk:walk_layers;
    info =
      [
        ("bare_digest", digest bare inp);
        ("traced_digest", digest tr inp);
        ("virtual_identical", string_of_bool agree);
      ];
  }

let run ~name ~seed ~seconds ~trace () =
  let w =
    match Workloads.get name with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ name)
  in
  let wall0 = Unix.gettimeofday () in
  let r =
    match (w, trace) with
    | Workloads.Store s, false -> bare_store (inputs s ~seed) ~seconds
    | Workloads.Store s, true -> traced (inputs s ~seed)
    | Workloads.Check c, false ->
        bare_check ~walk:c.walk ~walks:c.walks ~classes:c.classes ~replica:c.replica ~seed
          ~seconds
    | Workloads.Check c, true ->
        traced
          ~check:(c.walk, seeds_of seed 1, c.classes)
          (inputs c.replica ~seed)
  in
  let fail_ratio = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  {
    r with
    info =
      r.info
      @ [
          ("ops_attempted", string_of_int r.attempted);
          ("ops_failed", string_of_int r.failed);
          ("fail_ratio", Printf.sprintf "%g" fail_ratio);
          ("wall_s", Printf.sprintf "%.3f" (Unix.gettimeofday () -. wall0));
        ];
  }

(* ---- output ---- *)

let unit_of name =
  match Spec.find_e2e name with
  | Some m -> m.Spec.e_unit
  | None -> (
      match List.find_opt (fun m -> m.Spec.l_name = name) Spec.per_layer with
      | Some m -> m.Spec.l_unit
      | None -> "")

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json r =
  let metrics =
    List.map
      (fun (name, v) ->
        Printf.sprintf {|%S: {"value": %s, "unit": %S}|} name (json_number v)
          (unit_of name))
      r.metrics
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.correct && List.for_all (fun (_, v) -> Float.is_finite v) r.metrics)
    r.attempted r.failed
    (String.concat ", " metrics)
