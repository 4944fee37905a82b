let max_clock = 3

(* CLOCK value at which an entry counts as hot. *)
let promote_threshold = 2

type hotness = {
  clock : Bytes.t; (* one saturating counter per HSIT entry *)
  queue : int Queue.t; (* promotion candidates, FIFO *)
  queued : Bytes.t; (* dedup bitset over HSIT entries *)
}

type t = Static | Hotness of hotness

let create (cfg : Config.t) =
  match cfg.Config.placement with
  | `Static -> Static
  | `Hotness ->
      Hotness
        {
          clock = Bytes.make cfg.Config.hsit_capacity '\000';
          queue = Queue.create ();
          queued = Bytes.make cfg.Config.hsit_capacity '\000';
        }

let is_hotness = function Static -> false | Hotness _ -> true

let touch t id =
  match t with
  | Static -> ()
  | Hotness h ->
      let c = Char.code (Bytes.unsafe_get h.clock id) in
      if c < max_clock then
        Bytes.unsafe_set h.clock id (Char.unsafe_chr (c + 1))

let note_vs_read t id =
  match t with
  | Static -> ()
  | Hotness h ->
      touch t id;
      if
        Char.code (Bytes.unsafe_get h.clock id) >= promote_threshold
        && Bytes.unsafe_get h.queued id = '\000'
      then begin
        Bytes.unsafe_set h.queued id '\001';
        Queue.add id h.queue
      end

let fresh_tier t ~hsit_id =
  match t with
  | Static -> `Ssd
  | Hotness h ->
      if Char.code (Bytes.unsafe_get h.clock hsit_id) >= promote_threshold then
        `Nvm
      else `Ssd

let next_promote t =
  match t with
  | Static -> None
  | Hotness h -> (
      match Queue.take_opt h.queue with
      | None -> None
      | Some id ->
          Bytes.unsafe_set h.queued id '\000';
          Some id)

let decay t id =
  match t with
  | Static -> true
  | Hotness h ->
      let c = Char.code (Bytes.unsafe_get h.clock id) in
      if c > 0 then Bytes.unsafe_set h.clock id (Char.unsafe_chr (c - 1));
      c <= 1

let forget t id =
  match t with
  | Static -> ()
  | Hotness h ->
      Bytes.unsafe_set h.clock id '\000';
      Bytes.unsafe_set h.queued id '\000'

let reset t =
  match t with
  | Static -> ()
  | Hotness h ->
      Bytes.fill h.clock 0 (Bytes.length h.clock) '\000';
      Bytes.fill h.queued 0 (Bytes.length h.queued) '\000';
      Queue.clear h.queue
