(** Command-line terms shared by [prism_ycsb], [prism_check] and the
    bench executables: a flag that appears in several tools is spelled,
    parsed and documented once, here. *)

open Cmdliner

(** [exec ~name ~doc term] evaluates [term] over the process's command
    line and exits with cmdliner's status. *)
val exec : name:string -> doc:string -> unit Term.t -> 'a

(** {1 Run control} *)

(** [--quick]: the CI-sized configuration [doc] describes. *)
val quick : doc:string -> bool Term.t

(** [--seed SEED], defaulting to the given value. *)
val seed : int64 -> int64 Term.t

(** [--jobs N] / [-j N] worker domains, already resolved: [0] means
    {!Prism_fleet.Fleet.default_jobs}, anything else is at least 1.
    Every consumer merges by job id, so output never depends on it. *)
val jobs : int Term.t

(** [--gc-tune]: evaluating the term applies
    {!Prism_harness.Setup.gc_tune} when the flag is given. *)
val gc_tune : unit Term.t

(** [--json FILE]: where to write the report [doc] names. *)
val json : doc:string -> string option Term.t

(** [--stats]: print the metric registry after the run. *)
val stats : bool Term.t

(** [--stats-json FILE]: write the metric registry [doc] describes. *)
val stats_json : doc:string -> string option Term.t

(** {1 Workload and store shape} *)

(** [--mix NAME] parsed with {!Prism_workload.Ycsb.mix_of_name};
    defaults to the mix the given name denotes. *)
val mix : string -> Prism_workload.Ycsb.mix Term.t

(** [scenario ~threads:(flag, doc) ~ops] overrides fields of a bench's
    base scenario: [--records N], [--ops N] (documented by [ops]), the
    thread count under [--flag N], and [--seed SEED]. Absent flags keep
    the base's fields, so [--quick] can choose the base first. *)
val scenario :
  threads:string * string ->
  ops:string ->
  (Prism_harness.Setup.scenario -> Prism_harness.Setup.scenario) Term.t

(** [csv elt name ~doc] is an optional comma-separated [--name A,B,..]
    override of a config list, each item parsed by [elt]. *)
val csv : 'a Arg.conv -> string -> doc:string -> 'a list option Term.t

(** [--placement static|hotness]: Prism's value-placement policy. *)
val placement : [ `Static | `Hotness ] Term.t

(** [--shards N]: hash-partition across N Prism shards behind the 2PC
    coordinator. [None] leaves the tool's default topology. *)
val shards : int option Term.t

(** [--txn-every K]: every K-th update becomes a multi-key 2PC write
    batch. [None] leaves the tool's default. *)
val txn_every : int option Term.t
