(** Background PWB reclamation (§5.2).

    One reclaimer process per PWB. When the owning thread's append drives
    utilization past the watermark, it pokes the reclaimer, which scans the
    ring from the head, keeps only well-coupled (live, §5.2) records,
    writes them chunk-by-chunk to a randomly chosen idle Value Storage, and
    repoints the HSIT entries. The ring head advances incrementally after
    every flushed chunk, so blocked appenders resume quickly.

    With [async:false] (the §7.6 ablation) the same pass runs inline on
    the application thread via {!reclaim_now}. *)

type t

(** [watermark] is the PWB utilization that triggers a pass (default
    0.5). *)
val create :
  ?watermark:float ->
  Prism_sim.Engine.t ->
  pwb:Pwb.t ->
  hsit:Hsit.t ->
  storages:Value_storage.t array ->
  rng:Prism_sim.Rng.t ->
  t

(** True when the PWB's utilization is at or past the watermark. *)
val over_watermark : t -> bool

(** Spawn the background process ([async] mode). *)
val start : t -> unit

(** [maybe_trigger t] pokes the reclaimer when utilization is past the
    watermark; cheap and non-blocking (call after every append). *)
val maybe_trigger : t -> unit

(** Run one reclamation pass synchronously on the calling process. Only tests
    call it: [test_core_units] "migrates live values", "skips superseded",
    "watermark trigger" and "overlapping passes keep their spans". *)
val reclaim_now : t -> unit

(** True while a pass is running. *)
val in_pass : t -> bool

(** Values migrated to Value Storage so far. *)
val reclaimed_values : t -> int

(** Dead (superseded) records skipped so far — the write traffic saved by
    reclaiming only the latest version (§4.3). *)
val skipped_dead : t -> int
