(** Storage device characteristics (the paper's Figure 1).

    Bandwidths are bytes/second, latencies are seconds, cost is $/TB,
    endurance is petabytes written over the device's lifetime. *)

type t = {
  name : string;
  read_bw : float;
  write_bw : float;
  read_lat : float;
  write_lat : float;
  cost_per_tb : float;
  endurance_pbw : float;
}

(** SK Hynix DDR4 DRAM: 15/15 GB/s, 0.08 us, $5427/TB. *)
val dram : t

(** Intel Optane DCPMM: 6.8/1.9 GB/s, 0.30/0.09 us, $4096/TB, 292 PBW. *)
val optane_dcpmm : t

(** Samsung 980 PRO flash SSD (PCIe 4): 7/5 GB/s, 50/20 us, $150/TB,
    0.6 PBW. *)
val samsung_980_pro : t

(** CXL-attached persistent memory (§8 discussion): byte-addressable,
    non-volatile, higher latency than DDR-attached Optane but wide
    bandwidth through PCIe 5 — projected from CXL 2.0 expander data. *)
val cxl_pmem : t

(** All five catalogue rows of Figure 1, in the paper's order. *)
val catalogue : t list

(** [cost_of_gb spec gb] is the dollar cost of [gb] gigabytes on this
    device, used to reproduce the equal-cost configurations of Table 1. *)
val cost_of_gb : t -> float -> float
