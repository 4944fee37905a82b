(** Value locations across heterogeneous media, and their packed word
    encoding stored in HSIT entries.

    Encoding of the primary word, which fits in 63 bits and so is handled
    as an immediate [int] (never a boxed [int64]):
    - bit 62: dirty bit for the flush-on-read protocol (§5.4) — the
      [int]'s sign bit;
    - bits 61..60: tag (0 nowhere, 1 PWB, 2 Value Storage; 3 is unused
      and {!decode} rejects it);
    - PWB payload: thread id (12 bits) and virtual offset (44 bits);
    - VS payload: value-storage id (8 bits), chunk generation (17 bits),
      chunk (20 bits), slot (15 bits).

    The generation is the chunk's reuse counter: it makes a location into
    a tagged pointer, so a stale reference into a recycled chunk can never
    be confused with the chunk's new contents (ABA protection for the
    lock-free HSIT CAS protocol). *)

type t =
  | Nowhere
  | In_pwb of { thread : int; voff : int }
  | In_vs of { vs : int; gen : int; chunk : int; slot : int }

val equal : t -> t -> bool

(** Equality ignoring the generation tag — used during recovery, when
    generations restart from zero. *)
val same_slot : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** [encode loc ~dirty] packs a location and dirty bit. Raises
    [Invalid_argument] when a field does not fit its bits; the generation
    is truncated (see {!truncate_gen}). *)
val encode : t -> dirty:bool -> int

(** [decode w] is the location packed in [w], whatever its dirty bit.
    Raises [Invalid_argument] on tag 3, which no location encodes. *)
val decode : int -> t

(** {2 Words}

    The hot paths (readers, SVC admission and the movers) carry a
    location as its clean word, the encoding with the dirty bit off,
    instead of a boxed [t]. Stored words are all encodings, so two clean
    words are equal exactly when their locations are. *)

(** [pwb_word ~thread ~voff] is [encode (In_pwb {thread; voff})
    ~dirty:false], without building the location. *)
val pwb_word : thread:int -> voff:int -> int

(** [vs_word ~vs ~gen ~chunk ~slot] is [encode (In_vs {vs; gen; chunk;
    slot}) ~dirty:false], without building the location. *)
val vs_word : vs:int -> gen:int -> chunk:int -> slot:int -> int

(** The word of [Nowhere]. *)
val nowhere_word : int

(** [is_pwb w] and [is_vs w] read the tag of a word. *)
val is_pwb : int -> bool

val is_vs : int -> bool

(** Fields of a PWB word. *)
val pwb_thread : int -> int

val pwb_voff : int -> int

(** Fields of a Value Storage word; the generation is truncated. *)
val vs_id : int -> int

val vs_gen : int -> int

val vs_chunk : int -> int

val vs_slot : int -> int

(** [is_dirty w] is the dirty bit of [w]. *)
val is_dirty : int -> bool

(** [set_dirty w b] returns [w] with the dirty bit forced to [b]. *)
val set_dirty : int -> bool -> int

(** Generations are stored modulo 2^17. *)
val truncate_gen : int -> int
