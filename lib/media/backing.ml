let min_capacity = 4096

let extend b len =
  let n = Bytes.length b in
  let b' = Bytes.create len in
  Bytes.blit b 0 b' 0 n;
  Bytes.fill b' n (len - n) '\000';
  b'

let grow b ~need ~limit =
  extend b (min limit (max need (max min_capacity (2 * Bytes.length b))))

let blit_out b off dst dst_off len =
  let avail = max 0 (min len (Bytes.length b - off)) in
  if avail > 0 then Bytes.blit b off dst dst_off avail;
  Bytes.fill dst (dst_off + avail) (len - avail) '\000'

let sub b off len =
  if off + len <= Bytes.length b then Bytes.sub b off len
  else begin
    let dst = Bytes.create len in
    blit_out b off dst 0 len;
    dst
  end
