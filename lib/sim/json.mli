(** The one JSON printer of the repository: bench reports, metric
    registries and Chrome traces all render through it.

    Numbers are carried preformatted ({!Num}, {!fixed}) so every report
    keeps its own fixed float formats, and member order is the order of
    the list: the same value always renders to the same bytes, which is
    what lets CI [cmp] a report against a rerun. *)

type t =
  | Bool of bool
  | Int of int
  | Num of string  (** a number, already formatted *)
  | Str of string
  | Arr of t list  (** pretty: one element per line *)
  | Obj of (string * t) list  (** pretty: one member per line *)
  | Row of (string * t) list  (** pretty: every member on one line *)
  | Raw of string  (** already-rendered JSON, emitted verbatim *)

(** [fixed d x] is [x] printed with [d] decimals ([%.*f]). *)
val fixed : int -> float -> t

val int64 : int64 -> t

(** Two-space indented rendering, newline-terminated. An {!Obj} puts
    each member on its own line, an {!Arr} each element, a {!Row} its
    members on one line as [{ "k": v, ... }]. *)
val to_string : t -> string

(** Rendering without any whitespace ({!Row} renders like {!Obj}). *)
val compact : t -> string

(** [write path v] writes [to_string v] to [path]. *)
val write : string -> t -> unit
