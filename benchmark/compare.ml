(* compare: judge a change against its parent from two result sets.

     compare PARENT.jsonl CHANGE.jsonl
     compare --record LABEL RUNS.jsonl

   A result set is the file prism_bench --out appends to: one JSON line
   per run. Runs of a workload pair up in file order, so run them
   alternating (parent, change, parent, ...) with the same seeds. The
   first form prints one row per (workload, metric): each side's median
   and quartiles, the change's win count, and a verdict:

   - improved: the change wins at least 9/10 of the pairs (ties count for
     neither) and the medians differ by more than the parent's
     interquartile range;
   - regressed: the change's median is worse than the parent's by more
     than the metric's bound;
   - unresolved: the parent's own spread exceeds the bound, unless every
     change run beats every parent run;
   - unchanged otherwise. Fewer than 10 pairs are flagged.

   Per-layer metrics have no bound; they get medians and wins only.
   --record prints one history line per (workload, metric) of a set:
   median, quartiles and run count. *)

open Prism_bench_lib

(* ---- reading result lines (our own format: a plain string scan) ---- *)

let find_from text needle start =
  let nl = String.length needle and tl = String.length text in
  let rec go i =
    if i + nl > tl then None
    else if String.sub text i nl = needle then Some (i + nl)
    else go (i + 1)
  in
  go start

let number_at text i =
  let tl = String.length text in
  let j = ref i in
  while
    !j < tl
    && match text.[!j] with '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true | _ -> false
  do
    incr j
  done;
  float_of_string_opt (String.sub text i (!j - i))

let workload_of line =
  match find_from line {|"workload": "|} 0 with
  | None -> None
  | Some i -> Some (String.sub line i (String.index_from line i '"' - i))

let metric_of line name =
  match find_from line (Printf.sprintf {|%S: {"value": |} name) 0 with
  | None -> None
  | Some i -> number_at line i

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Values of [metric] on [workload], in file order. *)
let values lines ~workload ~metric =
  List.filter_map
    (fun l -> if workload_of l = Some workload then metric_of l metric else None)
    lines

(* ---- statistics ---- *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4) (exclusive method). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let better higher x y = if higher then x > y else x < y

let judge ~higher ~bound ~parent ~change =
  let pairs = min (List.length parent) (List.length change) in
  let p = List.filteri (fun i _ -> i < pairs) parent in
  let c = List.filteri (fun i _ -> i < pairs) change in
  let wins = List.fold_left2 (fun n x y -> if better higher y x then n + 1 else n) 0 p c in
  let pm = median p and cm = median c in
  let pq1, pq3 = quartiles p and cq1, cq3 = quartiles c in
  let iqr = pq3 -. pq1 in
  let spread = if pm = 0.0 then 0.0 else iqr /. Float.abs pm in
  let worse_by =
    if pm = 0.0 then 0.0 else (if higher then pm -. cm else cm -. pm) /. Float.abs pm
  in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> better higher y x) p) c
  in
  let verdict =
    if 10 * wins >= 9 * pairs && Float.abs (cm -. pm) > iqr then "improved"
    else
      match bound with
      | None -> "-"
      | Some b ->
          if spread > b && not all_better then "unresolved"
          else if worse_by > b then "regressed"
          else "unchanged"
  in
  Printf.sprintf "%.6g [%.6g, %.6g]  %.6g [%.6g, %.6g]  %+.2f%%  wins %d/%d  %s%s" pm pq1
    pq3 cm cq1 cq3
    (if pm = 0.0 then 0.0 else 100.0 *. (cm -. pm) /. Float.abs pm)
    wins pairs verdict
    (if pairs < 10 then " (fewer than 10 pairs)" else "")

let metrics =
  List.map (fun m -> (m.Spec.e_name, m.Spec.e_better = Spec.Higher, Some m.Spec.bound))
    Spec.end_to_end
  @ List.map (fun m -> (m.Spec.l_name, m.Spec.l_better = Spec.Higher, None)) Spec.per_layer

let compare_sets parent change =
  let pl = read_lines parent and cl = read_lines change in
  Printf.printf "%-15s %-30s parent median [q1, q3]  change median [q1, q3]  delta  wins  verdict\n"
    "workload" "metric";
  List.iter
    (fun w ->
      List.iter
        (fun (metric, higher, bound) ->
          let workload = w.Spec.w_name in
          let parent = values pl ~workload ~metric and change = values cl ~workload ~metric in
          if parent <> [] && change <> [] then
            Printf.printf "%-15s %-30s %s\n" workload metric
              (judge ~higher ~bound ~parent ~change))
        metrics)
    Spec.workloads

let record label path =
  let lines = read_lines path in
  List.iter
    (fun w ->
      List.iter
        (fun (metric, _, _) ->
          let workload = w.Spec.w_name in
          match values lines ~workload ~metric with
          | [] -> ()
          | xs ->
              let q1, q3 = quartiles xs in
              Printf.printf
                {|{"label": %S, "workload": %S, "metric": %S, "n": %d, "median": %.17g, "q1": %.17g, "q3": %.17g}|}
                label workload metric (List.length xs) (median xs) q1 q3;
              print_newline ())
        metrics)
    Spec.workloads

let () =
  match Array.to_list Sys.argv with
  | [ _; "--record"; label; path ] -> record label path
  | [ _; parent; change ] -> compare_sets parent change
  | _ ->
      prerr_endline "usage: compare PARENT.jsonl CHANGE.jsonl | compare --record LABEL RUNS.jsonl";
      exit 2
