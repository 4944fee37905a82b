(** Plain-text table rendering for experiment output, shaped like the
    paper's figures/tables so EXPERIMENTS.md can quote them directly. *)

(** [table ~title ~columns rows] prints an aligned table; the first column
    is left-aligned, the rest right-aligned. *)
val table : title:string -> columns:string list -> string list list -> unit

(** [kops v] renders "12.3" (kops) or "1.23M" when large. *)
val kops : float -> string

(** [us v] renders a latency in microseconds with one decimal: "12.3". *)
val us : float -> string

(** [section title] prints a figure/table heading. *)
val section : string -> unit
