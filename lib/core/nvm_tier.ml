open Prism_media
open Prism_sim

let header_size = 16

type t = {
  nvm : Nvm.t;
  base : int;
  capacity : int;
  (* DRAM metadata: offset -> (owner, payload length). *)
  meta : (int, int * int) Hashtbl.t;
  (* Sorted, coalesced free ranges (noff, bytes). First-fit: the tier
     holds at most the hot set, so the list stays short. *)
  mutable free_ranges : (int * int) list;
  mutable used : int;
}

let record_extent ~len = header_size + Prism_sim.Bits.round_up len header_size

let create nvm ~capacity =
  if capacity < 4 * header_size then
    invalid_arg "Nvm_tier.create: capacity too small";
  if capacity mod header_size <> 0 then
    invalid_arg "Nvm_tier.create: capacity must be a multiple of 16";
  let base = Nvm.allocated nvm in
  Nvm.note_alloc nvm capacity;
  if Nvm.allocated nvm > Nvm.size nvm then
    invalid_arg "Nvm_tier.create: NVM region too small";
  {
    nvm;
    base;
    capacity;
    meta = Hashtbl.create 1024;
    free_ranges = [ (0, capacity) ];
    used = 0;
  }

let owner t ~noff =
  Option.map fst (Hashtbl.find_opt t.meta noff)

let iter t f =
  Hashtbl.iter (fun noff (hsit_id, len) -> f ~hsit_id ~noff ~len) t.meta

(* First-fit allocation out of the sorted range list. *)
let alloc_range t extent =
  let rec go acc = function
    | [] -> None
    | (off, sz) :: rest when sz >= extent ->
        let rest' =
          if sz = extent then rest else (off + extent, sz - extent) :: rest
        in
        t.free_ranges <- List.rev_append acc rest';
        Some off
    | r :: rest -> go (r :: acc) rest
  in
  go [] t.free_ranges

(* Insert a range back, keeping the list sorted and coalescing
   neighbours. *)
let free_range t off sz =
  let merge (o, s) = function
    | (o', s') :: rest when o + s = o' -> (o, s + s') :: rest
    | rest -> (o, s) :: rest
  in
  let rec go = function
    | [] -> [ (off, sz) ]
    | (o, s) :: rest when o + s = off -> merge (o, s + sz) rest
    | (o, s) :: rest when off + sz = o -> (off, sz + s) :: rest
    | (o, s) :: rest when o > off + sz -> (off, sz) :: (o, s) :: rest
    | r :: rest -> r :: go rest
  in
  t.free_ranges <- go t.free_ranges

let append t ~hsit_id ~value =
  let len = Bytes.length value in
  let extent = record_extent ~len in
  match alloc_range t extent with
  | None -> None
  | Some noff ->
      let record = Bytes.make extent '\000' in
      Bytes.set_int64_le record 0 (Int64.of_int hsit_id);
      Bytes.set_int32_le record 8 (Int32.of_int len);
      Bytes.blit value 0 record header_size len;
      Nvm.write_persist t.nvm ~off:(t.base + noff) record;
      Hashtbl.replace t.meta noff (hsit_id, len);
      t.used <- t.used + extent;
      Some noff

let read t ~noff ~expect =
  match Hashtbl.find_opt t.meta noff with
  | Some (id, len) when id = expect ->
      let payload =
        Nvm.read t.nvm ~off:(t.base + noff + header_size) ~len
      in
      (* The device access suspends; re-check ownership before trusting the
         bytes — the record may have been freed and overwritten meanwhile. *)
      (match Hashtbl.find_opt t.meta noff with
      | Some (id', len') when id' = expect && len' = len -> Some payload
      | Some _ | None -> None)
  | Some _ | None -> None

let free t ~noff =
  match Hashtbl.find_opt t.meta noff with
  | None -> ()
  | Some (_, len) ->
      Hashtbl.remove t.meta noff;
      let extent = record_extent ~len in
      t.used <- t.used - extent;
      free_range t noff extent

let read_durable t ~noff =
  if noff < 0 || noff + header_size > t.capacity then None
  else begin
    let b = Nvm.read_durable t.nvm ~off:(t.base + noff) ~len:header_size in
    let hsit_id = Int64.to_int (Bytes.get_int64_le b 0) in
    let len = Int32.to_int (Bytes.get_int32_le b 8) in
    if hsit_id < 0 || len <= 0 || noff + record_extent ~len > t.capacity then
      None
    else
      Some
        ( hsit_id,
          Nvm.read_durable t.nvm ~off:(t.base + noff + header_size) ~len )
  end

let reset t =
  Hashtbl.reset t.meta;
  t.free_ranges <- [ (0, t.capacity) ];
  t.used <- 0

let recover t ~live =
  reset t;
  (* Repopulate the map, then rebuild free ranges as the complement of the
     live extents. *)
  List.iter
    (fun (hsit_id, noff) ->
      match read_durable t ~noff with
      | Some (id, payload) when id = hsit_id ->
          Hashtbl.replace t.meta noff (hsit_id, Bytes.length payload);
          t.used <- t.used + record_extent ~len:(Bytes.length payload)
      | Some _ | None -> ())
    live;
  let extents =
    Hashtbl.fold
      (fun noff (_, len) acc -> (noff, record_extent ~len) :: acc)
      t.meta []
    |> List.sort compare
  in
  let ranges = ref [] in
  let pos =
    List.fold_left
      (fun pos (off, ext) ->
        if off > pos then ranges := (pos, off - pos) :: !ranges;
        off + ext)
      0 extents
  in
  if pos < t.capacity then ranges := (pos, t.capacity - pos) :: !ranges;
  t.free_ranges <- List.rev !ranges

let register_stats t stats ~prefix =
  Stats.gauge_int stats (prefix ^ ".used_bytes") (fun () -> t.used);
  Stats.gauge_int stats (prefix ^ ".capacity") (fun () -> t.capacity);
  Stats.gauge_int stats (prefix ^ ".resident") (fun () ->
      Hashtbl.length t.meta)
