open Prism_device

type kind = Ssd_raid of Raid.t | Nvm_dev of Model.t | Nvm_raw of Model.t

type t = { kind : kind; mutable cursor : int }

let ssd_raid r = { kind = Ssd_raid r; cursor = 0 }

let nvm_dev d = { kind = Nvm_dev d; cursor = 0 }

let nvm_raw d = { kind = Nvm_raw d; cursor = 0 }

(* Sequential writes advance a synthetic offset so RAID striping spreads
   the load over member devices the way mdadm does. *)
let next_off t size =
  let off = t.cursor in
  t.cursor <- t.cursor + size;
  off

let write t ~size =
  match t.kind with
  | Ssd_raid r ->
      let off = next_off t size in
      Raid.access r Model.Write ~off ~size
  | Nvm_dev d | Nvm_raw d -> Model.access d Model.Write ~size

let read t ~size =
  match t.kind with
  | Ssd_raid r ->
      let off = next_off t size in
      Raid.access r Model.Read ~off ~size
  | Nvm_dev d | Nvm_raw d -> Model.access d Model.Read ~size

let bytes_written t =
  match t.kind with
  | Ssd_raid r -> Raid.bytes_written r
  | Nvm_dev d | Nvm_raw d -> Model.bytes_written d

let io_overhead t cost =
  match t.kind with
  | Ssd_raid _ | Nvm_dev _ -> cost.Cost.syscall
  | Nvm_raw _ -> 0.0
