(** YCSB workload generator (Cooper et al.), configured as in the paper's
    Table 2, plus the Nutanix production mix of §7.5.

    Keys follow the YCSB format [user<zero-padded ordinal>]; the ordinal is
    drawn from a scrambled-Zipfian distribution over the loaded records.
    Values are deterministic functions of (key, version) so correctness
    can be checked without storing expected state. *)

type op =
  | Read of string
  | Update of string * bytes
  | Insert of string * bytes
  | Scan of string * int  (** start key, length *)

type mix = {
  name : string;
  reads : float;
  updates : float;
  inserts : float;
  scans : float;
  latest : bool;  (** skew towards recently inserted records (YCSB-D) *)
  scan_len : int;  (** average scan length *)
}

val ycsb_a : mix

val ycsb_b : mix

val ycsb_c : mix

val ycsb_e : mix

(** Nutanix production mix: 57 % updates, 41 % reads, 2 % scans (§7.5). *)
val nutanix : mix

val all_ycsb : mix list

(** [mix_of_name s] finds the mix whose [name] matches [s] ignoring case:
    ["a"] .. ["e"] and ["nutanix"]. *)
val mix_of_name : string -> mix option

(** [key_of i] is the YCSB key for ordinal [i]. *)
val key_of : int -> string

(** [value_for ~size ~key ~version] builds a deterministic payload. *)
val value_for : size:int -> key:string -> version:int -> bytes

(** [expected_version] / bookkeeping is up to the caller; [version_of v]
    recovers the version stamped into a payload (for correctness checks). *)
val version_of : bytes -> int option

type t

(** [create mix ~records ~theta ~value_size rng] prepares a generator over
    a dataset of [records] loaded keys. *)
val create :
  mix -> records:int -> theta:float -> value_size:int -> Prism_sim.Rng.t -> t

(** Draw the next operation. Inserts extend the key space. *)
val next : t -> op

(** Current number of records (grows with inserts). *)
val records : t -> int

(** [load_order ~records rng] is the shuffled insert order used for the
    LOAD phase ("we load ... in random order", §7.1). *)
val load_order : records:int -> Prism_sim.Rng.t -> int array
