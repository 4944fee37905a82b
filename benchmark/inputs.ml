(* Everything a workload feeds the store, generated from the benchmark's
   seed by the benchmark's own code: no generator from the program under
   test (lib/workload, Prism_sim.Rng) is used, so a change to the program
   can never change the inputs it is measured on. *)

(* SplitMix64. *)
type rng = { mutable s : int64 }

let rng seed = { s = seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

let below r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

(* An independent stream per purpose, so adding draws to one stream never
   shifts another. *)
let stream seed name = rng (Int64.logxor seed (Int64.of_int (Hashtbl.hash name)))

(* Zipfian ranks over [0, n) (Gray et al., as in YCSB): rank 0 is the
   hottest item. *)
type zipf = { n : int; alpha : float; zetan : float; eta : float; half : float }

let zipf ~n ~theta =
  let zeta k =
    let s = ref 0.0 in
    for i = 1 to k do
      s := !s +. (1.0 /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n in
  {
    n;
    alpha = 1.0 /. (1.0 -. theta);
    zetan;
    eta = (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta))) /. (1.0 -. (zeta 2 /. zetan));
    half = 0.5 ** theta;
  }

let zipf_rank z r =
  let u = uniform r in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. z.half then 1
  else
    min (z.n - 1)
      (int_of_float (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha)))

(* Keys: "user" + a seeded 32-bit bijection of the key index, so hot
   (low-index) keys are scattered over the key order, as in YCSB's
   scrambled Zipfian. *)
let fmix32 h =
  let h = h land 0xffffffff in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land 0xffffffff in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land 0xffffffff in
  h lxor (h lsr 16)

let keys ~seed ~count =
  let salt = Int64.to_int (next (stream seed "keys")) land 0xffffffff in
  Array.init count (fun i ->
      Printf.sprintf "user%08x" (fmix32 ((i + salt) land 0xffffffff)))

(* Values are stamped with (key index, put id) so every read names the
   write it returns: bytes 0-7 key index, 8-15 put id, the rest a fill
   byte derived from both. *)
let stamp ~size ~key ~put =
  let v = Bytes.make size (Char.unsafe_chr ((key + put) land 0xff)) in
  Bytes.set_int64_le v 0 (Int64.of_int key);
  Bytes.set_int64_le v 8 (Int64.of_int put);
  v

(* [Some (key, put)] when [v] is a well-formed stamp. *)
let unstamp v =
  let n = Bytes.length v in
  if n < 16 then None
  else
    let key = Int64.to_int (Bytes.get_int64_le v 0) in
    let put = Int64.to_int (Bytes.get_int64_le v 8) in
    if Bytes.get v (n - 1) = Char.unsafe_chr ((key + put) land 0xff) then
      Some (key, put)
    else None

type kind = Get | Update | Scan | Insert | Batch

(* One workload's operation stream. [key.(i)] is a key index; [arg.(i)]
   is the scan length for scans and the first of [batch_width - 1] extra
   key indices in [extra] for batches. *)
type ops = {
  kind : kind array;
  key : int array;
  arg : int array;
  extra : int array;
}

type mix = {
  get : float;
  update : float;
  scan : float;
  insert : float;  (** inserts append fresh keys after the loaded ones *)
  batch_every : int;  (** every k-th update becomes a batch (0 = never) *)
  batch_width : int;  (** keys per batch *)
  scan_max : int;  (** scan lengths are uniform in [1, scan_max] *)
}

let ops ~seed ~records ~count ~theta (m : mix) =
  let r = stream seed "ops" in
  let z = Option.map (fun theta -> zipf ~n:records ~theta) theta in
  let pick () = match z with Some z -> zipf_rank z r | None -> below r records in
  let kind = Array.make count Get and key = Array.make count 0 in
  let arg = Array.make count 0 in
  let extra = ref [] and n_extra = ref 0 and updates = ref 0 in
  let inserted = ref 0 in
  for i = 0 to count - 1 do
    let u = uniform r in
    if u < m.get then key.(i) <- pick ()
    else if u < m.get +. m.update then begin
      key.(i) <- pick ();
      incr updates;
      if m.batch_every > 0 && !updates mod m.batch_every = 0 then begin
        kind.(i) <- Batch;
        arg.(i) <- !n_extra;
        (* Distinct keys: a batch writes each key once. *)
        let chosen = ref [ key.(i) ] in
        for _ = 2 to m.batch_width do
          let rec fresh () =
            let k = below r records in
            if List.mem k !chosen then fresh () else k
          in
          let k = fresh () in
          chosen := k :: !chosen;
          extra := k :: !extra;
          incr n_extra
        done
      end
      else kind.(i) <- Update
    end
    else if u < m.get +. m.update +. m.scan then begin
      kind.(i) <- Scan;
      key.(i) <- pick ();
      arg.(i) <- 1 + below r m.scan_max
    end
    else begin
      kind.(i) <- Insert;
      key.(i) <- records + !inserted;
      incr inserted
    end
  done;
  { kind; key; arg; extra = Array.of_list (List.rev !extra) }

let inserts o =
  Array.fold_left (fun n k -> if k = Insert then n + 1 else n) 0 o.kind

(* Puts an op stream issues: one per update/insert, [batch_width] per
   batch. *)
let puts o ~batch_width =
  Array.fold_left
    (fun n -> function
      | Update | Insert -> n + 1
      | Batch -> n + batch_width
      | Get | Scan -> n)
    0 o.kind

(* LOAD order: a seeded permutation of the loaded key indices. *)
let load_order ~seed ~records =
  let r = stream seed "load" in
  let a = Array.init records Fun.id in
  for i = records - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
