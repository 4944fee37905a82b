let offset_basis = 0xCBF29CE484222325L

let prime = 0x100000001B3L

(* An index loop over a local accumulator: the compiler keeps [h]
   unboxed, so hashing allocates nothing until a caller takes the
   [int64] itself (a closure over a ref, as with [String.iter], boxes
   twice per byte). Inlined into [bucket], it never boxes. *)
let[@inline] fnv1a s =
  let h = ref offset_basis in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let fnv1a_int v =
  let h = ref offset_basis in
  for i = 0 to 7 do
    let byte = (v lsr (i * 8)) land 0xFF in
    h := Int64.logxor !h (Int64.of_int byte);
    h := Int64.mul !h prime
  done;
  !h

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] to_bucket h n =
  assert (n > 0);
  (* Mask to 62 bits so Int64.to_int cannot land on the native sign bit. *)
  let v = Int64.to_int (Int64.logand h 0x3FFFFFFFFFFFFFFFL) in
  v mod n

let bucket s n = to_bucket (fnv1a s) n
