(** Workload traces: record a stream of operations once and replay it
    against several stores, so cross-system comparisons see the exact same
    request sequence (and experiments can be re-run from a file).

    The textual format is one operation per line:
    {v
      R <key>
      U <key> <value-size> <version>
      I <key> <value-size> <version>
      S <key> <count>
      D <key>
    v}
    Values are regenerated deterministically from (key, version) with
    {!Ycsb.value_for}, so traces stay small. *)

type op =
  | Read of string
  | Update of string * int * int  (** key, value size, version *)
  | Insert of string * int * int
  | Scan of string * int
  | Delete of string

type t = op array

(** [record gen ~ops] draws [ops] operations from a YCSB generator. *)
val record : Ycsb.t -> ops:int -> t

(** An operation stamped with its open-loop arrival time (virtual seconds
    from the start of the run). *)
type timed = { at : float; op : op }

(** [record_timed gen ~gap ~ops] draws [ops] operations and stamps each
    with a cumulative arrival time, pulling successive interarrival gaps
    from [gap] (for Poisson arrivals at [rate], e.g.
    [fun () -> Rng.exponential rng ~mean:(1.0 /. rate)]). Both streams are
    consumed in index order, so the same generator and gap stream always
    produce the identical timed trace. *)
val record_timed : Ycsb.t -> gap:(unit -> float) -> ops:int -> timed array

(** Round-trippable text encoding. *)
val to_string : t -> string

val of_string : string -> (t, string) result

val save : t -> path:string -> unit

val load : path:string -> (t, string) result

(** Operation counts by type: reads, updates, inserts, scans, deletes. *)
val summary : t -> int * int * int * int * int
