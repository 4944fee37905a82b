type t = {
  threads : int;
  pwb_size : int;
  svc_capacity : int;
  num_value_storages : int;
  vs_size : int;
  chunk_size : int;
  queue_depth : int;
  hsit_capacity : int;
  key_index : [ `Btree | `Art ];
  nvm_size : int;
  nvm_spec : Prism_device.Spec.t;
  use_thread_combining : bool;
  use_svc : bool;
  scan_reorganize : bool;
  async_reclaim : bool;
  seed : int64;
  fault_skip_hsit_flush : bool;
  fault_skip_svc_invalidate : bool;
  fault_scan_skip_pwb : bool;
}

let kib = 1024

let mib = 1024 * 1024

let default =
  {
    threads = 4;
    pwb_size = 1 * mib;
    svc_capacity = 8 * mib;
    num_value_storages = 2;
    vs_size = 32 * mib;
    chunk_size = 64 * kib;
    queue_depth = 64;
    hsit_capacity = 1 lsl 17;
    key_index = `Btree;
    nvm_size = 32 * mib;
    nvm_spec = Prism_device.Spec.optane_dcpmm;
    use_thread_combining = true;
    use_svc = true;
    scan_reorganize = true;
    async_reclaim = true;
    seed = 0x5eedL;
    fault_skip_hsit_flush = false;
    fault_skip_svc_invalidate = false;
    fault_scan_skip_pwb = false;
  }

let validate t =
  let check cond msg = if not cond then invalid_arg ("Config: " ^ msg) in
  check (t.threads > 0) "threads <= 0";
  check (t.pwb_size > 4096) "pwb_size too small";
  check (t.num_value_storages > 0) "num_value_storages <= 0";
  check (t.chunk_size > 0) "chunk_size <= 0";
  check (t.vs_size mod t.chunk_size = 0) "chunk_size must divide vs_size";
  check (t.vs_size / t.chunk_size >= 4) "need at least 4 chunks";
  check (t.queue_depth > 0) "queue_depth <= 0";
  check (t.hsit_capacity > 0) "hsit_capacity <= 0";
  check
    (t.nvm_size >= (t.threads * t.pwb_size) + (t.hsit_capacity * 16))
    "nvm_size cannot hold PWBs + HSIT"
