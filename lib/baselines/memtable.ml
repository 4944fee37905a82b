type t = {
  list : bytes option Prism_index.Skiplist.t;
  mutable bytes : int;
}

let create ~rng () = { list = Prism_index.Skiplist.create ~rng (); bytes = 0 }

let value_bytes = function Some v -> Bytes.length v | None -> 0

let put t key v =
  let before = Prism_index.Skiplist.find t.list key in
  let steps = Prism_index.Skiplist.insert t.list key v in
  (match before with
  | Some old -> t.bytes <- t.bytes - value_bytes old + value_bytes v
  | None -> t.bytes <- t.bytes + String.length key + value_bytes v + 24);
  steps

let find t key = Prism_index.Skiplist.find t.list key

let bytes t = t.bytes

let to_list t =
  let acc = ref [] in
  Prism_index.Skiplist.iter t.list (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let scan t ~from ~count = Prism_index.Skiplist.scan t.list ~from ~count

exception Stop

let iter_while t f =
  try
    Prism_index.Skiplist.iter t.list (fun k v ->
        if not (f k v) then raise Stop)
  with Stop -> ()

let delete t key =
  match Prism_index.Skiplist.find t.list key with
  | None -> ()
  | Some v ->
      ignore (Prism_index.Skiplist.delete t.list key);
      t.bytes <- t.bytes - (String.length key + value_bytes v + 24)
