open Prism_sim

type direction = Read | Write

type t = {
  engine : Engine.t;
  clock : float array; (* the engine's clock cells: [clock.(0)] is now *)
  spec : Spec.t;
  times : float array;
      (* [times.(0)] is when the transfer stage frees up, [times.(1)] the
         completion of the latest booking. Float cells, where a mixed
         record's float field would box every store, and where the
         engine reads the completion without it crossing a call boxed. *)
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable reads : int;
  mutable writes : int;
  mutable in_flight : int;
  retire : unit -> unit; (* one completion's bookkeeping, built once *)
}

let create engine spec =
  let rec t =
    {
      engine;
      clock = Engine.clock engine;
      spec;
      times = [| 0.0; 0.0 |];
      bytes_read = 0;
      bytes_written = 0;
      reads = 0;
      writes = 0;
      in_flight = 0;
      retire = (fun () -> t.in_flight <- t.in_flight - 1);
    }
  in
  t

let bandwidth t = function
  | Read -> t.spec.Spec.read_bw
  | Write -> t.spec.Spec.write_bw

let latency t = function
  | Read -> t.spec.Spec.read_lat
  | Write -> t.spec.Spec.write_lat

let note t dir size =
  match dir with
  | Read ->
      t.bytes_read <- t.bytes_read + size;
      t.reads <- t.reads + 1
  | Write ->
      t.bytes_written <- t.bytes_written + size;
      t.writes <- t.writes + 1

(* Books the transfer, counts it in flight and leaves its completion
   time in [t.times.(1)]; the caller queues [t.retire] there. *)
let book t dir ~size =
  if size < 0 then invalid_arg "Model.submit: negative size";
  note t dir size;
  let times = t.times in
  let start =
    Float.max (Array.unsafe_get t.clock 0) (Array.unsafe_get times 0)
  in
  let transfer_done = start +. (float_of_int size /. bandwidth t dir) in
  Array.unsafe_set times 0 transfer_done;
  t.in_flight <- t.in_flight + 1;
  Array.unsafe_set times 1 (transfer_done +. latency t dir)

let submit t dir ~size =
  book t dir ~size;
  Engine.schedule_until t.engine t.times 1 t.retire;
  Array.unsafe_get t.times 1

let submit_then t dir ~size k =
  book t dir ~size;
  Engine.schedule_behind_until t.engine t.times 1 t.retire k

let access t dir ~size =
  book t dir ~size;
  Engine.delay_behind_until t.times 1 t.retire

let bytes_written t = t.bytes_written

let bytes_read t = t.bytes_read

let reads t = t.reads

let writes t = t.writes

let reset_stats t =
  t.bytes_read <- 0;
  t.bytes_written <- 0;
  t.reads <- 0;
  t.writes <- 0

let in_flight t = t.in_flight

let register_stats t stats ~prefix =
  Stats.gauge_int stats (prefix ^ ".bytes_read") (fun () -> t.bytes_read);
  Stats.gauge_int stats (prefix ^ ".bytes_written") (fun () -> t.bytes_written);
  Stats.gauge_int stats (prefix ^ ".reads") (fun () -> t.reads);
  Stats.gauge_int stats (prefix ^ ".writes") (fun () -> t.writes);
  Stats.gauge_int stats (prefix ^ ".in_flight") (fun () -> t.in_flight)
