(** Small bit-twiddling helpers shared across the simulator. *)

(** [msb v] is the position of the highest set bit of [v]
    ([msb 1 = 0], [msb 64 = 6]). Requires [v > 0]. *)
val msb : int -> int

(** [is_power_of_two v] for [v > 0]. Only [test_sim] "helpers" calls it. *)
val is_power_of_two : int -> bool

(** [ceil_div a b] is the ceiling of [a / b] for positive [b]. *)
val ceil_div : int -> int -> int

(** [round_up v multiple] rounds [v] up to a multiple of [multiple]. *)
val round_up : int -> int -> int
