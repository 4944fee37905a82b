(* prism_bench: the repository's benchmark.

     prism_bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

   Runs one workload in this process (a single OCaml domain; simulated
   clients are coroutines) and prints "workload metric value unit" lines,
   then one JSON object as the last line of standard output. --trace 0
   reports the end-to-end metrics, --trace 1 the per-layer metrics.
   --workload all runs every workload, each in its own child process.
   --out appends a JSON line with the workload, seed and metrics to FILE,
   for compare.exe. --print-spec prints BENCHMARK.json. *)

open Prism_bench_lib

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref (float_of_int Spec.run_seconds) in
  let trace = ref 0 and out = ref "" and spec = ref false in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE append the result as one JSON line");
      ("--print-spec", Arg.Set spec, " print BENCHMARK.json and exit");
    ]
  in
  let usage = "prism_bench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !spec then begin
    print_string Spec.benchmark_json;
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  if !workload = "all" then begin
    let failed = ref false in
    List.iter
      (fun w ->
        let argv =
          Array.of_list
            ([ Sys.executable_name; "--workload"; w.Spec.w_name; "--seed";
               string_of_int !seed; "--seconds"; string_of_float !seconds;
               "--trace"; string_of_int !trace ]
            @ if !out = "" then [] else [ "--out"; !out ])
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failed := true)
      Spec.workloads;
    exit (if !failed then 1 else 0)
  end;
  if Spec.find_workload !workload = None then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let r =
    Bench.run ~name:!workload ~seed:(Int64.of_int !seed) ~seconds:!seconds
      ~trace:(!trace = 1) ()
  in
  List.iter
    (fun (name, v) ->
      Printf.printf "%s %s %.6g %s\n" !workload name v (Bench.unit_of name))
    r.Bench.metrics;
  List.iter (fun (name, v) -> Printf.printf "%s info.%s %s\n" !workload name v) r.Bench.info;
  let line = Bench.json r in
  if !out <> "" then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !out in
    Printf.fprintf oc {|{"workload": %S, "seed": %d, "trace": %d, "result": %s}|} !workload
      !seed !trace line;
    output_char oc '\n';
    close_out oc
  end;
  print_endline line
