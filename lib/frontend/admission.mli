(** Admission control and load shedding for the open-loop front-end.

    A policy sees every request twice: once at arrival ({!admit} — accept
    into the queue or shed immediately) and once when a server picks it up
    ({!on_dequeue} — serve it or drop it for having waited too long).
    Policies are pure functions of virtual time and queue state, so a run
    is deterministic.

    Shapes:

    - [Unbounded]: the FIFO baseline — never sheds; past saturation the
      queue and every latency percentile diverge.
    - [Bounded b]: classic tail drop — an arrival finding [b] requests
      queued is shed.
    - [Token_bucket]: admission rate limit — tokens accrue at [rate] per
      virtual second up to [burst]; an arrival without a token is shed.
    - [Codel]: CoDel-style queue-delay shedder (Nichols & Jacobson) — when
      the standing queue delay stays above [target] for [interval], drop
      at dequeue with the [interval / sqrt count] control law until the
      delay is back under [target]. *)

type outcome = Accept | Shed

type spec =
  | Unbounded
  | Bounded of int  (** max queued requests *)
  | Token_bucket of { rate : float; burst : float }
  | Codel of { target : float; interval : float }  (** virtual seconds *)

(** Stable display name: ["unbounded"], ["bounded"], ["token-bucket"],
    ["codel"]. *)
val name : spec -> string

(** Parameters rendered for reports, e.g. ["bounded(512)"]. *)
val describe : spec -> string

(** [of_string ~capacity ~servers s] parses a CLI policy name into a
    spec, deriving defaults from the store's calibrated closed-loop
    capacity (ops per virtual second) and the number of servers draining
    the queue. The scale unit is the service slot [servers / capacity] —
    the virtual time one request occupies one server — so a queue of
    depth [d] costs roughly [d / capacity] of wait:

    - ["unbounded"]
    - ["bounded"] (bound = 25 x servers, >= 16 — about 25 slots of
      queueing delay) or ["bounded=N"]
    - ["token-bucket"] (rate = 0.95 x capacity, burst = 2 x servers)
      or ["token-bucket=RATE"] / ["token-bucket=RATE:BURST"]
    - ["codel"] (target = 5 slots, interval = 20 slots) or
      ["codel=TARGET_US:INTERVAL_US"]

    Parameters are separated by [':'], so a comma-separated list of
    policies can carry them. *)
val of_string :
  capacity:float -> servers:int -> string -> (spec, string) result

(** Mutable policy state for one run. *)
type t

val create : spec -> t

val spec : t -> spec

(** [admit t ~now ~depth] decides whether an arrival joins the queue
    ([depth] requests currently waiting). *)
val admit : t -> now:float -> depth:int -> outcome

(** [on_dequeue t ~now ~wait ~depth] decides whether a request that
    waited [wait] virtual seconds is served or dropped; [depth] is the
    queue length after removing it. *)
val on_dequeue : t -> now:float -> wait:float -> depth:int -> outcome
