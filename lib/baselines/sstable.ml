type entry = string * bytes option

let block_size = 4096

type block = {
  first : string;
  items : entry array;
  bbytes : int;
}

type t = {
  id : int;
  min_key : string;
  max_key : string;
  blocks : block array;
  bloom : Prism_index.Bloom.t;
  entries : int;
  bytes : int;
}

(* Ids are only identity keys (LSM/SLM-DB cache and index maps); their
   numeric values never reach any output. *)
let next_id = ref 0

let id t = t.id

let min_key t = t.min_key

let max_key t = t.max_key

let entries t = t.entries

let bytes t = t.bytes

let block_count t = Array.length t.blocks

let entry_bytes (k, v) =
  String.length k + (match v with Some v -> Bytes.length v | None -> 0) + 12

let build entries_list =
  (match entries_list with
  | [] -> invalid_arg "Sstable.build: empty"
  | _ -> ());
  let n = List.length entries_list in
  let bloom = Prism_index.Bloom.create ~expected_entries:n () in
  List.iter (fun (k, _) -> Prism_index.Bloom.add bloom k) entries_list;
  let blocks = ref [] in
  let current = ref [] in
  let current_bytes = ref 0 in
  let flush_block () =
    match List.rev !current with
    | [] -> ()
    | items ->
        let items = Array.of_list items in
        blocks :=
          { first = fst items.(0); items; bbytes = !current_bytes } :: !blocks;
        current := [];
        current_bytes := 0
  in
  List.iter
    (fun e ->
      let sz = entry_bytes e in
      if !current_bytes + sz > block_size && !current <> [] then flush_block ();
      current := e :: !current;
      current_bytes := !current_bytes + sz)
    entries_list;
  flush_block ();
  let blocks = Array.of_list (List.rev !blocks) in
  let total =
    Array.fold_left (fun acc b -> acc + b.bbytes) 0 blocks
    + (Array.length blocks * 32)
    + Prism_index.Bloom.byte_size bloom
  in
  let last = blocks.(Array.length blocks - 1) in
  incr next_id;
  {
    id = !next_id;
    min_key = blocks.(0).first;
    max_key = fst last.items.(Array.length last.items - 1);
    blocks;
    bloom;
    entries = n;
    bytes = total;
  }

let may_contain t key = Prism_index.Bloom.mem t.bloom key

(* Last block whose first key is <= key. *)
let locate_block t key =
  if String.compare key t.min_key < 0 || String.compare key t.max_key > 0
  then None
  else begin
    let lo = ref 0 and hi = ref (Array.length t.blocks - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if String.compare t.blocks.(mid).first key <= 0 then lo := mid
      else hi := mid - 1
    done;
    Some !lo
  end

let find_in_block t ~block key =
  let items = t.blocks.(block).items in
  let lo = ref 0 and hi = ref (Array.length items) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (fst items.(mid)) key < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo < Array.length items && String.equal (fst items.(!lo)) key then
    Some (snd items.(!lo))
  else None

let block_bytes t ~block = max block_size t.blocks.(block).bbytes

let iter_from t key f =
  let start_block =
    match locate_block t key with
    | Some b -> b
    | None -> if String.compare key t.min_key < 0 then 0 else Array.length t.blocks
  in
  let continue_iter = ref true in
  let b = ref start_block in
  while !continue_iter && !b < Array.length t.blocks do
    let items = t.blocks.(!b).items in
    let i = ref 0 in
    while !continue_iter && !i < Array.length items do
      let k, v = items.(!i) in
      if String.compare k key >= 0 then
        if not (f ~block:!b k v) then continue_iter := false;
      incr i
    done;
    incr b
  done

let overlaps t ~min ~max =
  not (String.compare t.max_key min < 0 || String.compare t.min_key max > 0)

let to_list t =
  Array.fold_left
    (fun acc b -> Array.fold_left (fun acc e -> e :: acc) acc b.items)
    [] t.blocks
  |> List.rev
