open Cmdliner
open Prism_workload

let exec ~name ~doc term = exit (Cmd.eval (Cmd.v (Cmd.info name ~doc) term))

let quick ~doc = Arg.(value & flag & info [ "quick" ] ~doc)

let seed_info =
  Arg.info [ "seed" ] ~docv:"SEED"
    ~doc:"Master seed: every run derives its randomness from it."

let seed default = Arg.(value & opt int64 default seed_info)

let jobs =
  let resolve j =
    if j = 0 then Prism_fleet.Fleet.default_jobs () else max 1 j
  in
  Term.(
    const resolve
    $ Arg.(
        value & opt int 1
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              "Worker domains running independent simulations. Output is \
               byte-identical for any $(docv); $(b,0) means one per core."))

let gc_tune =
  let apply on = if on then Prism_harness.Setup.gc_tune () in
  Term.(
    const apply
    $ Arg.(
        value & flag
        & info [ "gc-tune" ]
            ~doc:
              "Tune the host GC for simulation workloads (large minor heap); \
               wall-clock only, virtual-time results are unaffected."))

let file_opt name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let json ~doc = file_opt "json" ~doc

let stats =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the metric registry after the run.")

let stats_json ~doc = file_opt "stats-json" ~doc

let mix default =
  let parse s =
    match Ycsb.mix_of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg ("unknown mix: " ^ s))
  in
  let print fmt m = Format.pp_print_string fmt m.Ycsb.name in
  Arg.(
    value
    & opt (conv (parse, print)) (Option.get (Ycsb.mix_of_name default))
    & info [ "mix" ] ~docv:"MIX" ~doc:"Workload mix: a|b|c|d|e|nutanix.")

let count name ~doc =
  Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc)

let scenario ~threads:(threads_flag, threads_doc) ~ops =
  let apply records threads ops seed (s : Prism_harness.Setup.scenario) =
    let o = Option.value in
    {
      s with
      records = o records ~default:s.records;
      threads = o threads ~default:s.threads;
      ops = o ops ~default:s.ops;
      seed = o seed ~default:s.seed;
    }
  in
  Term.(
    const apply
    $ count "records" ~doc:"Dataset size in keys."
    $ count threads_flag ~doc:threads_doc
    $ count "ops" ~doc:ops
    $ Arg.(value & opt (some int64) None seed_info))

let csv elt name ~doc =
  Arg.(value & opt (some (list elt)) None & info [ name ] ~docv:"LIST" ~doc)

let placement =
  Arg.(
    value
    & opt (enum [ ("static", `Static); ("hotness", `Hotness) ]) `Static
    & info [ "placement" ] ~docv:"POLICY"
        ~doc:
          "Prism value-placement policy: $(b,static) (all values to SSD \
           Value Storage, the paper's layout) or $(b,hotness) (CLOCK-tracked \
           hot values promoted to an NVM value tier, cold residents demoted \
           during reclaim).")

let shards =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Hash-partition the keyspace across $(docv) Prism shards behind a \
           simulated network and a 2PC coordinator ($(docv) > 1 implies the \
           cluster).")

let txn_every =
  Arg.(
    value
    & opt (some int) None
    & info [ "txn-every" ] ~docv:"K"
        ~doc:
          "Every $(docv)-th update becomes an atomic multi-key 2PC write \
           batch across the cluster; $(b,0) disables batches.")
