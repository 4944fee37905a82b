(* The 64-bit state lives in 8 bytes rather than a [mutable int64]
   field: a field holds a boxed Int64, so every draw would allocate a new
   box, while reading and writing the bytes keeps the arithmetic
   unboxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

(* SplitMix64 finalizer (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix state

let split t = create (next_int64 t)

let float t =
  (* Use the top 53 bits for a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(* Hoisted out of [int]: building the mask per draw allocated a boxed
   Int64 on a path the workload generators hit once per operation. *)
let int_mask = Int64.of_int max_int

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.logand (next_int64 t) int_mask) in
  v mod bound

let exponential t ~mean =
  let u = float t in
  -.mean *. log (1.0 -. u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
