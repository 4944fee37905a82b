(* A growable circular buffer: [len] cells from [head], wrapping at the
   power-of-two capacity. Free cells hold an immediate placeholder, as in
   {!Heap}, so the array is never a flat float array and never keeps a
   popped element reachable. The cells are allocated on the first push,
   so an idle ring costs its record alone. *)

type 'a t = { mutable cells : 'a array; mutable head : int; mutable len : int }

let dummy : 'a = Obj.magic 0

let create () = { cells = [||]; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.cells in
  let cells = Array.make (max 8 (2 * cap)) dummy in
  for i = 0 to t.len - 1 do
    cells.(i) <- t.cells.((t.head + i) land (cap - 1))
  done;
  t.cells <- cells;
  t.head <- 0

let push t v =
  if t.len = Array.length t.cells then grow t;
  t.cells.((t.head + t.len) land (Array.length t.cells - 1)) <- v;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.cells.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let v = t.cells.(t.head) in
  t.cells.(t.head) <- dummy;
  t.head <- (t.head + 1) land (Array.length t.cells - 1);
  t.len <- t.len - 1;
  v

let clear t =
  while t.len > 0 do
    ignore (pop t)
  done
