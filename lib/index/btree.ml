type 'v leaf = {
  mutable lkeys : string array;
  mutable lvals : 'v array;
  mutable next : 'v leaf option;
}

type 'v node = Leaf of 'v leaf | Internal of 'v internal

and 'v internal = {
  mutable ikeys : string array; (* separators; length = #children - 1 *)
  mutable children : 'v node array;
}

type 'v t = {
  order : int;
  on_access : [ `Read | `Write ] -> int -> unit;
  mutable root : 'v node;
  mutable length : int;
  mutable height : int;
}

let create ?(order = 64) ~on_access () =
  if order < 4 then invalid_arg "Btree.create: order < 4";
  {
    order;
    on_access;
    root = Leaf { lkeys = [||]; lvals = [||]; next = None };
    length = 0;
    height = 1;
  }

let length t = t.length

let is_empty t = t.length = 0

let height t = t.height

(* Bytes a lookup actually touches in one node: header plus one cache
   line per binary-search probe (log2 of the fanout). The full resident
   footprint is computed by [approx_bytes]. *)
let node_charge nkeys =
  let probes = if nkeys <= 1 then 1 else Prism_sim.Bits.msb nkeys + 1 in
  32 + (64 * probes)

let touch t kind node =
  let n =
    match node with
    | Leaf l -> Array.length l.lkeys
    | Internal i -> Array.length i.ikeys
  in
  t.on_access kind (node_charge n)

(* Binary search: first index i such that keys.(i) >= key (lower bound). *)
let lower_bound keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child index in an internal node: number of separators <= key. *)
let child_index keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare keys.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert a i v =
  let n = Array.length a in
  let b = Array.make (n + 1) v in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

let rec find_leaf t node key =
  match node with
  | Leaf l -> l
  | Internal i ->
      touch t `Read node;
      find_leaf t i.children.(child_index i.ikeys key) key

let find t key =
  let l = find_leaf t t.root key in
  touch t `Read (Leaf l);
  let i = lower_bound l.lkeys key in
  if i < Array.length l.lkeys && String.equal l.lkeys.(i) key then
    Some l.lvals.(i)
  else None

type 'v split = { sep : string; right : 'v node }

let split_leaf l =
  let n = Array.length l.lkeys in
  let mid = n / 2 in
  let right =
    {
      lkeys = Array.sub l.lkeys mid (n - mid);
      lvals = Array.sub l.lvals mid (n - mid);
      next = l.next;
    }
  in
  l.lkeys <- Array.sub l.lkeys 0 mid;
  l.lvals <- Array.sub l.lvals 0 mid;
  l.next <- Some right;
  { sep = right.lkeys.(0); right = Leaf right }

let split_internal i =
  let n = Array.length i.ikeys in
  let mid = n / 2 in
  let sep = i.ikeys.(mid) in
  let right =
    {
      ikeys = Array.sub i.ikeys (mid + 1) (n - mid - 1);
      children = Array.sub i.children (mid + 1) (n - mid);
    }
  in
  i.ikeys <- Array.sub i.ikeys 0 mid;
  i.children <- Array.sub i.children 0 (mid + 1);
  { sep; right = Internal right }

let rec insert_into t node key v =
  match node with
  | Leaf l ->
      touch t `Write node;
      let i = lower_bound l.lkeys key in
      if i < Array.length l.lkeys && String.equal l.lkeys.(i) key then begin
        let prev = l.lvals.(i) in
        l.lvals.(i) <- v;
        (Some prev, None)
      end
      else begin
        l.lkeys <- array_insert l.lkeys i key;
        l.lvals <- array_insert l.lvals i v;
        let split =
          if Array.length l.lkeys > t.order then Some (split_leaf l) else None
        in
        (None, split)
      end
  | Internal inode ->
      touch t `Read node;
      let ci = child_index inode.ikeys key in
      let prev, child_split = insert_into t inode.children.(ci) key v in
      let split =
        match child_split with
        | None -> None
        | Some { sep; right } ->
            touch t `Write node;
            inode.ikeys <- array_insert inode.ikeys ci sep;
            inode.children <- array_insert inode.children (ci + 1) right;
            if Array.length inode.ikeys > t.order then
              Some (split_internal inode)
            else None
      in
      (prev, split)

let insert t key v =
  let prev, split = insert_into t t.root key v in
  (match split with
  | None -> ()
  | Some { sep; right } ->
      t.root <- Internal { ikeys = [| sep |]; children = [| t.root; right |] };
      t.height <- t.height + 1;
      touch t `Write t.root);
  if prev = None then t.length <- t.length + 1;
  prev

let delete t key =
  let l = find_leaf t t.root key in
  touch t `Write (Leaf l);
  let i = lower_bound l.lkeys key in
  if i < Array.length l.lkeys && String.equal l.lkeys.(i) key then begin
    l.lkeys <- array_remove l.lkeys i;
    l.lvals <- array_remove l.lvals i;
    t.length <- t.length - 1;
    true
  end
  else false

let iter_range t ~from ~count f =
  if count > 0 then begin
    let leaf = ref (find_leaf t t.root from) in
    let i = ref (lower_bound !leaf.lkeys from) in
    let remaining = ref count in
    let more = ref true in
    while !more do
      let l = !leaf in
      t.on_access `Read (node_charge (Array.length l.lkeys));
      let n = Array.length l.lkeys in
      while !remaining > 0 && !i < n do
        f l.lkeys.(!i) l.lvals.(!i);
        decr remaining;
        incr i
      done;
      match l.next with
      | Some next when !remaining > 0 ->
          leaf := next;
          i := 0
      | Some _ | None -> more := false
    done
  end

let scan t ~from ~count =
  let acc = ref [] in
  iter_range t ~from ~count (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let rec leftmost_leaf = function
  | Leaf l -> l
  | Internal i -> leftmost_leaf i.children.(0)

let iter t f =
  let rec walk = function
    | None -> ()
    | Some l ->
        Array.iteri (fun i key -> f key l.lvals.(i)) l.lkeys;
        walk l.next
  in
  walk (Some (leftmost_leaf t.root))

let fold t init f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let approx_bytes t =
  let rec bytes node =
    match node with
    | Leaf l ->
        Array.fold_left (fun acc k -> acc + String.length k + 16) 32 l.lkeys
    | Internal i ->
        Array.fold_left
          (fun acc k -> acc + String.length k + 16)
          (Array.fold_left (fun acc c -> acc + bytes c) 32 i.children)
          i.ikeys
  in
  bytes t.root
