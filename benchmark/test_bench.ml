(* Tiny-scale checks of the benchmark itself: the output oracle catches
   injected store faults and passes the clean store, runs are
   deterministic in virtual time with and without tracing, and
   BENCHMARK.json matches the benchmark's own table. *)

open Prism_bench_lib

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let tiny_inputs name =
  match Option.map Workloads.tiny (Workloads.get name) with
  | Some (Workloads.Store s) -> Rounds.inputs s ~seed:7L
  | Some (Workloads.Check { replica; _ }) -> Rounds.inputs replica ~seed:7L
  | None -> invalid_arg name

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let oracle () =
  let inp = tiny_inputs "ycsb-a-zipf" in
  let clean = Rounds.round ~checks:true inp in
  check "clean store: no failed op" (clean.Rounds.failed = 0);
  let stale =
    Rounds.round ~checks:true
      ~tweak:(fun c -> { c with Prism_core.Config.fault_skip_svc_invalidate = true })
      inp
  in
  check "skipped SVC invalidation: stale gets fail"
    (List.exists (fun n -> contains n "get" && contains n "superseded") stale.Rounds.notes);
  let lost =
    Rounds.round ~checks:true
      ~tweak:(fun c -> { c with Prism_core.Config.fault_skip_hsit_flush = true })
      inp
  in
  check "skipped HSIT flush: the durability sweep fails"
    (lost.Rounds.failed > 0
    && List.for_all (fun n -> contains n "after recovery") lost.Rounds.notes)

(* On dpor-check the checker's report is the output: an injected fault
   must be reported, and every reported violation must replay. *)
let checker () =
  let cfg =
    { Prism_check.Explore.default with Prism_check.Explore.fault = Prism_check.Explore.Skip_svc_invalidate }
  in
  let w = Rounds.walk ~confirm:true cfg ~seeds:[ 7L ] ~max_classes:2 in
  check "checker: injected stale reads are reported and replay"
    (w.Rounds.violations > 0 && w.Rounds.unconfirmed = 0)

let determinism () =
  List.iter
    (fun name ->
      let inp = tiny_inputs name in
      let d r = Rounds.digest r inp in
      let a = Rounds.round inp and b = Rounds.round inp in
      let t = Rounds.round ~traced:true inp in
      check (name ^ ": two bare rounds agree in virtual time") (d a = d b);
      check (name ^ ": the traced round agrees with the bare one") (d a = d t);
      check (name ^ ": the traced round sampled and recorded spans")
        (t.Rounds.spans <> []
        && match t.Rounds.samples with Some s -> s.Rounds.n > 0 | None -> false))
    [ "ycsb-a-zipf"; "ycsb-e-scan"; "cluster-txn" ]

let table () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  check "BENCHMARK.json is the table (regenerate: prism_bench --print-spec)"
    (text = Spec.benchmark_json);
  let names =
    List.map (fun w -> w.Spec.w_name) Spec.workloads
    @ List.map (fun m -> m.Spec.e_name) Spec.end_to_end
    @ List.map (fun m -> m.Spec.l_name) Spec.per_layer
  in
  let well_formed s =
    String.length s <= 64
    && String.for_all
         (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
         s
  in
  check "names are well formed and unique"
    (List.for_all well_formed names
    && List.length (List.sort_uniq compare names) = List.length names);
  check "every why fits one line of 200 characters"
    (List.for_all
       (fun w -> String.length w.Spec.why <= 200 && not (String.contains w.Spec.why '\n'))
       Spec.workloads);
  let setup = (Option.get (Spec.find_e2e "setup_s")).Spec.bound in
  check "bounds are within (0, 0.25]; setup_s has the largest"
    (List.for_all
       (fun m -> m.Spec.bound > 0.0 && m.Spec.bound <= 0.25 && m.Spec.bound <= setup)
       Spec.end_to_end)

let () =
  oracle ();
  checker ();
  determinism ();
  table ();
  if !failures > 0 then exit 1
