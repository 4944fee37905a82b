(** Prism configuration: component sizes, device choices, and feature
    toggles (the latter drive the §7.6 ablation experiments). *)

type t = {
  threads : int;  (** application threads; one PWB each (§4.3) *)
  pwb_size : int;  (** bytes of NVM write buffer per thread *)
  svc_capacity : int;  (** DRAM bytes for the Scan-aware Value Cache *)
  num_value_storages : int;  (** one per SSD (§5.1) *)
  vs_size : int;  (** bytes per Value Storage *)
  chunk_size : int;  (** log-structured chunk, 512 KiB (§5.1) *)
  queue_depth : int;  (** io_uring ring size / TCQ coalescing limit (64) *)
  hsit_capacity : int;  (** maximum number of live keys *)
  key_index : [ `Btree | `Art ];
      (** Persistent Key Index implementation — the paper stresses Prism
          accepts any range index (§4.1, §6) *)
  nvm_size : int;  (** total simulated NVM bytes (index + HSIT + PWBs) *)
  nvm_spec : Prism_device.Spec.t;
  (* Feature toggles for ablations (§7.6). *)
  use_thread_combining : bool;
      (** true: TCQ (§5.3); false: timeout-based async IO (TA) *)
  use_svc : bool;  (** false disables the DRAM value cache *)
  scan_reorganize : bool;  (** false disables SVC sort-on-evict (§4.4) *)
  async_reclaim : bool;
      (** false makes PWB reclamation block the application thread *)
  seed : int64;
  (* Deliberate-bug switches for the checking subsystem ({!Prism_check}).
     Never enable outside tests: each one breaks a documented invariant so
     the checker can demonstrate it catches the resulting misbehaviour.
     Only mutants inside the store live here; one that just rewrites what
     an operation returns is the checker's ([Explore.instance]). *)
  fault_skip_hsit_flush : bool;
      (** true: HSIT skips the §5.4 pointer-persist protocol (install and
          clear the dirty bit without ever flushing the line), so a crash
          can lose acknowledged writes — caught by the crash-point sweep *)
  fault_skip_svc_invalidate : bool;
      (** true: [put]/[delete] skip the SVC invalidation, so later reads can
          return stale cached values — caught by the linearizability
          checker *)
  fault_scan_skip_pwb : bool;
      (** true: scans skip values whose freshest version still lives in a
          PWB, silently omitting recently-written in-range keys — caught
          only by the strict scan check *)
}

(** A small-footprint default suitable for tests: 4 threads, 1 MiB PWBs,
    8 MiB SVC, 2 Value Storages of 32 MiB, 64 KiB chunks. *)
val default : t

(** Sanity-check invariants (chunk divides VS size, positive sizes, ...).
    Raises [Invalid_argument] when violated. *)
val validate : t -> unit
