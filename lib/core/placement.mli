(** Pluggable value-placement policy.

    The store consults the policy at two points:

    - value-write time (PWB reclamation): {!fresh_tier} names the tier a
      live record should land on — the NVM-resident value tier
      ({!Nvm_tier}) or SSD Value Storage;
    - reclaim time: the reclaimer's migration step drains
      {!next_promote} candidates (read-hot values still on SSD) and uses
      {!decay} CLOCK hands over tier residents to pick demotions.

    [Static] is the pre-placement-layer behaviour: everything answers
    "SSD", every hook is a no-op, and — critically — none of the hooks
    touch the engine, the RNG, or any device, so a Static store is
    byte-identical to the code before the refactor.

    [Hotness] keeps a CLOCK-style access clock piggybacked on the HSIT:
    one DRAM byte per HSIT entry, saturating at 3, bumped on every
    resolved read/write and decayed by the reclaimer's sweeps. Entries at
    or above clock 2 are promotion candidates; residents whose clock
    decays to zero are demoted. All of
    it is DRAM-side bookkeeping (the paper's HSIT has spare bits in the
    SVC word; modelling it as a sidecar array charges the same nothing). *)

type t

(** [create cfg] builds the policy named by [cfg.placement]. *)
val create : Config.t -> t

val is_hotness : t -> bool

(** Record an access to HSIT entry [id]. No engine-visible effects. *)
val touch : t -> int -> unit

(** Like {!touch}, for a read served from SSD Value Storage: if the entry
    is now hot, it also becomes a promotion candidate. *)
val note_vs_read : t -> int -> unit

(** Tier for a freshly reclaimed value. [Static] always answers [`Ssd]. *)
val fresh_tier : t -> hsit_id:int -> [ `Nvm | `Ssd ]

(** Pop the next promotion candidate (deduplicated), if any. *)
val next_promote : t -> int option

(** Decay the entry's clock by one; returns [true] when it is now cold
    (zero). *)
val decay : t -> int -> bool

(** Forget an entry entirely (deleted key). *)
val forget : t -> int -> unit

(** Drop all DRAM state (crash). *)
val reset : t -> unit
