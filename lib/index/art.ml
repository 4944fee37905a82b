type 'v children =
  | N4 of { mutable keys : Bytes.t; mutable nodes : 'v node array; mutable n : int }
  | N48 of { index : int array; mutable nodes : 'v node array; mutable n : int }
  | N256 of { nodes : 'v node option array; mutable n : int }

and 'v node = {
  mutable prefix : string;
  mutable value : 'v option;
  mutable children : 'v children;
}

type 'v t = {
  on_access : [ `Read | `Write ] -> int -> unit;
  root : 'v node;
  mutable length : int;
}

let empty_children () = N4 { keys = Bytes.create 16; nodes = [||]; n = 0 }

let create ~on_access () =
  {
    on_access;
    root = { prefix = ""; value = None; children = empty_children () };
    length = 0;
  }

let length t = t.length

let is_empty t = t.length = 0

let touch t kind node =
  t.on_access kind (32 + String.length node.prefix)

(* ---- children operations ---- *)

let find_child children c =
  match children with
  | N4 ch ->
      let rec look i =
        if i >= ch.n then None
        else if Bytes.get ch.keys i = c then Some ch.nodes.(i)
        else look (i + 1)
      in
      look 0
  | N48 ch ->
      let slot = ch.index.(Char.code c) in
      if slot < 0 then None else Some ch.nodes.(slot)
  | N256 ch -> ch.nodes.(Char.code c)

(* Upgrade a full node to the next fanout class. *)
let grow node =
  match node.children with
  | N4 ch when ch.n >= 16 ->
      let index = Array.make 256 (-1) in
      let nodes = Array.make 48 ch.nodes.(0) in
      for i = 0 to ch.n - 1 do
        index.(Char.code (Bytes.get ch.keys i)) <- i;
        nodes.(i) <- ch.nodes.(i)
      done;
      node.children <- N48 { index; nodes; n = ch.n }
  | N48 ch when ch.n >= 48 ->
      let nodes = Array.make 256 None in
      Array.iteri
        (fun code slot -> if slot >= 0 then nodes.(code) <- Some ch.nodes.(slot))
        ch.index;
      node.children <- N256 { nodes; n = ch.n }
  | N4 _ | N48 _ | N256 _ -> ()

let add_child node c child =
  (match node.children with
  | N4 ch when ch.n >= 16 -> grow node
  | N48 ch when ch.n >= 48 -> grow node
  | N4 _ | N48 _ | N256 _ -> ());
  match node.children with
  | N4 ch ->
      if ch.n = 0 then ch.nodes <- Array.make 16 child;
      Bytes.set ch.keys ch.n c;
      ch.nodes.(ch.n) <- child;
      ch.n <- ch.n + 1
  | N48 ch ->
      ch.index.(Char.code c) <- ch.n;
      ch.nodes.(ch.n) <- child;
      ch.n <- ch.n + 1
  | N256 ch ->
      ch.nodes.(Char.code c) <- Some child;
      ch.n <- ch.n + 1

(* Children as (byte, node) pairs in ascending byte order. *)
let sorted_children children =
  match children with
  | N4 ch ->
      List.init ch.n (fun i -> (Bytes.get ch.keys i, ch.nodes.(i)))
      |> List.sort compare
  | N48 ch ->
      let acc = ref [] in
      for code = 255 downto 0 do
        let slot = ch.index.(code) in
        if slot >= 0 then acc := (Char.chr code, ch.nodes.(slot)) :: !acc
      done;
      !acc
  | N256 ch ->
      let acc = ref [] in
      for code = 255 downto 0 do
        match ch.nodes.(code) with
        | Some n -> acc := (Char.chr code, n) :: !acc
        | None -> ()
      done;
      !acc

(* ---- find ---- *)

let rec find_at t node key depth =
  touch t `Read node;
  let plen = String.length node.prefix in
  let klen = String.length key in
  if klen - depth < plen then None
  else if String.sub key depth plen <> node.prefix then None
  else begin
    let depth = depth + plen in
    if depth = klen then node.value
    else
      match find_child node.children key.[depth] with
      | Some child -> find_at t child key (depth + 1)
      | None -> None
  end

let find t key = find_at t t.root key 0

(* ---- insert ---- *)

let common_prefix_len a b start =
  let n = min (String.length a) (String.length b - start) in
  let rec go i =
    if i < n && a.[i] = b.[start + i] then go (i + 1) else i
  in
  go 0

let leaf_for key depth v =
  {
    prefix = String.sub key depth (String.length key - depth);
    value = Some v;
    children = empty_children ();
  }

let rec insert_at t node key depth v =
  touch t `Write node;
  let plen = String.length node.prefix in
  let common = common_prefix_len node.prefix key depth in
  if common < plen then begin
    (* Split the compressed path: node keeps its tail under a new
       intermediate node that owns the common prefix. *)
    let tail =
      {
        prefix = String.sub node.prefix (common + 1) (plen - common - 1);
        value = node.value;
        children = node.children;
      }
    in
    let split_byte = node.prefix.[common] in
    node.prefix <- String.sub node.prefix 0 common;
    node.value <- None;
    node.children <- empty_children ();
    add_child node split_byte tail;
    let depth = depth + common in
    if depth = String.length key then begin
      node.value <- Some v;
      None
    end
    else begin
      add_child node key.[depth] (leaf_for key (depth + 1) v);
      None
    end
  end
  else begin
    let depth = depth + plen in
    if depth = String.length key then begin
      let prev = node.value in
      node.value <- Some v;
      prev
    end
    else begin
      match find_child node.children key.[depth] with
      | Some child -> insert_at t child key (depth + 1) v
      | None ->
          add_child node key.[depth] (leaf_for key (depth + 1) v);
          None
    end
  end

let insert t key v =
  let prev = insert_at t t.root key 0 v in
  if prev = None then t.length <- t.length + 1;
  prev

(* ---- delete (lazy: unset the value, keep the structure) ---- *)

let rec delete_at t node key depth =
  touch t `Write node;
  let plen = String.length node.prefix in
  if String.length key - depth < plen then false
  else if String.sub key depth plen <> node.prefix then false
  else begin
    let depth = depth + plen in
    if depth = String.length key then
      match node.value with
      | Some _ ->
          node.value <- None;
          true
      | None -> false
    else
      match find_child node.children key.[depth] with
      | Some child -> delete_at t child key (depth + 1)
      | None -> false
  end

let delete t key =
  let removed = delete_at t t.root key 0 in
  if removed then t.length <- t.length - 1;
  removed

(* ---- ordered traversal ---- *)

exception Stop

let iter t f =
  let buf = Buffer.create 64 in
  let rec walk node =
    let saved = Buffer.length buf in
    Buffer.add_string buf node.prefix;
    (match node.value with
    | Some v -> f (Buffer.contents buf) v
    | None -> ());
    List.iter
      (fun (c, child) ->
        let saved = Buffer.length buf in
        Buffer.add_char buf c;
        walk child;
        Buffer.truncate buf saved)
      (sorted_children node.children);
    Buffer.truncate buf saved
  in
  walk t.root

let fold t init f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let iter_range t ~from ~count f =
  if count > 0 then begin
    let remaining = ref count in
    let buf = Buffer.create 64 in
    let emit k v =
      f k v;
      decr remaining;
      if !remaining = 0 then raise Stop
    in
    (* Walk with pruning: a subtree whose path already compares >= [from]
       (and is not a strict prefix of it) is emitted wholesale; a path that
       is a prefix of [from] descends selectively; anything else is
       skipped. *)
    let rec walk node ~selective =
      touch t `Read node;
      let saved = Buffer.length buf in
      Buffer.add_string buf node.prefix;
      let path = Buffer.contents buf in
      let qualified =
        (not selective)
        ||
        let c = String.compare path from in
        c >= 0
      in
      let is_prefix_of_from =
        String.length path < String.length from
        && String.sub from 0 (String.length path) = path
      in
      if qualified then begin
        (match node.value with Some v -> emit path v | None -> ());
        List.iter
          (fun (c, child) ->
            let saved = Buffer.length buf in
            Buffer.add_char buf c;
            walk child ~selective:false;
            Buffer.truncate buf saved)
          (sorted_children node.children)
      end
      else if is_prefix_of_from then begin
        let next = from.[String.length path] in
        List.iter
          (fun (c, child) ->
            if c >= next then begin
              let saved = Buffer.length buf in
              Buffer.add_char buf c;
              walk child ~selective:(c = next);
              Buffer.truncate buf saved
            end)
          (sorted_children node.children)
      end;
      Buffer.truncate buf saved
    in
    try walk t.root ~selective:true with Stop -> ()
  end

let scan t ~from ~count =
  let acc = ref [] in
  iter_range t ~from ~count (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let approx_bytes t =
  let rec bytes node =
    let own =
      32 + String.length node.prefix
      +
      match node.children with
      | N4 ch -> 16 + (ch.n * 8)
      | N48 _ -> 256 + (48 * 8)
      | N256 _ -> 256 * 8
    in
    List.fold_left
      (fun acc (_, child) -> acc + bytes child)
      own
      (sorted_children node.children)
  in
  bytes t.root
