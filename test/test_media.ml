(* Tests for the media layer: NVM flush/fence semantics, crash behaviour,
   atomic RMW, and the SSD image. *)

open Prism_sim
open Prism_media
open Prism_device
open Helpers

let make_nvm ?(size = 64 * 1024) e =
  Nvm.create e ~spec:Spec.optane_dcpmm ~size ()

(* ---- basic read/write ---- *)

let test_nvm_write_read_roundtrip () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      let data = Bytes.of_string "hello nvm" in
      Nvm.write nvm ~off:100 data;
      Alcotest.check bytes_eq "roundtrip" data
        (Nvm.read nvm ~off:100 ~len:(Bytes.length data)))

let test_nvm_bounds_checked () =
  in_sim (fun e ->
      let nvm = make_nvm ~size:4096 e in
      (try
         Nvm.write nvm ~off:4090 (Bytes.make 16 'x');
         Alcotest.fail "expected out-of-range failure"
       with Invalid_argument _ -> ());
      try
        ignore (Nvm.read nvm ~off:(-1) ~len:4);
        Alcotest.fail "expected negative offset failure"
      with Invalid_argument _ -> ())

let test_nvm_charges_time () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      let t0 = Engine.now e in
      ignore (Nvm.read nvm ~off:0 ~len:64);
      let elapsed = Engine.now e -. t0 in
      (* NVM read latency is 0.30us. *)
      Alcotest.(check bool) "nvm read latency" true
        (elapsed >= 0.29e-6 && elapsed < 0.5e-6))

(* ---- persistence semantics ---- *)

let test_nvm_unpersisted_write_lost_on_crash () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.write nvm ~off:0 (Bytes.of_string "volatile!");
      Nvm.crash nvm;
      let b = Nvm.read_durable nvm ~off:0 ~len:9 in
      Alcotest.check bytes_eq "lost" (Bytes.make 9 '\000') b)

let test_nvm_persisted_write_survives_crash () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      let data = Bytes.of_string "durable!!" in
      Nvm.write_persist nvm ~off:128 data;
      Nvm.crash nvm;
      Alcotest.check bytes_eq "survives"
        data
        (Nvm.read nvm ~off:128 ~len:(Bytes.length data)))

let test_nvm_partial_persist () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      (* Two writes on different lines; persist only the first line. *)
      Nvm.write nvm ~off:0 (Bytes.of_string "AAAA");
      Nvm.write nvm ~off:256 (Bytes.of_string "BBBB");
      Nvm.persist nvm ~off:0 ~len:4;
      Nvm.crash nvm;
      Alcotest.check bytes_eq "first survives" (Bytes.of_string "AAAA")
        (Nvm.read nvm ~off:0 ~len:4);
      Alcotest.check bytes_eq "second lost" (Bytes.make 4 '\000')
        (Nvm.read nvm ~off:256 ~len:4))

let test_nvm_same_line_covered_by_one_flush () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      (* Two writes on the same 64-byte line; flushing any part persists
         the whole line (cache-line granularity). *)
      Nvm.write nvm ~off:0 (Bytes.of_string "AA");
      Nvm.write nvm ~off:32 (Bytes.of_string "BB");
      Nvm.persist nvm ~off:0 ~len:1;
      Nvm.crash nvm;
      Alcotest.check bytes_eq "whole line durable" (Bytes.of_string "BB")
        (Nvm.read nvm ~off:32 ~len:2))

let test_nvm_dirty_lines_tracking () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Alcotest.(check int) "clean" 0 (Nvm.dirty_lines nvm);
      Nvm.write nvm ~off:0 (Bytes.make 65 'x');
      Alcotest.(check int) "two lines dirty" 2 (Nvm.dirty_lines nvm);
      Nvm.persist nvm ~off:0 ~len:65;
      Alcotest.(check int) "clean after persist" 0 (Nvm.dirty_lines nvm))

let test_nvm_rewrite_after_persist () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.write_persist nvm ~off:0 (Bytes.of_string "first");
      Nvm.write nvm ~off:0 (Bytes.of_string "secnd");
      Nvm.crash nvm;
      Alcotest.check bytes_eq "old durable version wins"
        (Bytes.of_string "first")
        (Nvm.read nvm ~off:0 ~len:5))

(* ---- dirty-line tracking against a reference model ---- *)

(* The persistence semantics restated with a set of dirty line numbers
   and two plain images. Lines are 64 B; the last line of a region whose
   size is not a multiple of 64 is partial. *)
type nvm_model = {
  vol : Bytes.t;
  dur : Bytes.t;
  dirty : (int, unit) Hashtbl.t;
}

let model_create size =
  {
    vol = Bytes.make size '\000';
    dur = Bytes.make size '\000';
    dirty = Hashtbl.create 16;
  }

let model_lines ~off ~len =
  if len = 0 then []
  else
    List.init
      (((off + len - 1) / 64) - (off / 64) + 1)
      (fun i -> (off / 64) + i)

let model_write m ~off src =
  let len = Bytes.length src in
  Bytes.blit src 0 m.vol off len;
  List.iter (fun l -> Hashtbl.replace m.dirty l ()) (model_lines ~off ~len)

let model_persist m ~off ~len =
  List.iter
    (fun l ->
      if Hashtbl.mem m.dirty l then begin
        Hashtbl.remove m.dirty l;
        let start = l * 64 in
        Bytes.blit m.vol start m.dur start (min 64 (Bytes.length m.vol - start))
      end)
    (model_lines ~off ~len)

let model_restore m ~off src =
  Bytes.blit src 0 m.vol off (Bytes.length src);
  Bytes.blit src 0 m.dur off (Bytes.length src);
  List.iter (Hashtbl.remove m.dirty)
    (model_lines ~off ~len:(Bytes.length src))

let model_crash m =
  Bytes.blit m.dur 0 m.vol 0 (Bytes.length m.dur);
  Hashtbl.reset m.dirty

let check_model what nvm m =
  let size = Bytes.length m.vol in
  Alcotest.(check int)
    (what ^ ": dirty lines")
    (Hashtbl.length m.dirty) (Nvm.dirty_lines nvm);
  Alcotest.check bytes_eq (what ^ ": volatile") m.vol
    (Nvm.read nvm ~off:0 ~len:size);
  Alcotest.check bytes_eq (what ^ ": durable") m.dur
    (Nvm.read_durable nvm ~off:0 ~len:size)

let test_nvm_dirty_map_model () =
  in_sim (fun e ->
      let size = 1000 in
      let nvm = make_nvm ~size e and m = model_create size in
      let write what off len c =
        let src = Bytes.make len c in
        Nvm.write nvm ~off src;
        model_write m ~off src;
        check_model what nvm m
      in
      write "write across two lines" 60 8 'a';
      Alcotest.(check int) "lines 0 and 1" 2 (Nvm.dirty_lines nvm);
      write "last, partial line" 990 10 'b';
      Alcotest.(check int) "line 15 too" 3 (Nvm.dirty_lines nvm);
      write "three more lines" 128 192 'c';
      Nvm.persist nvm ~off:192 ~len:64;
      model_persist m ~off:192 ~len:64;
      check_model "persist one line of a dirty range" nvm m;
      Alcotest.(check int) "lines 0-2, 4 and 15 stay dirty" 5
        (Nvm.dirty_lines nvm);
      Nvm.persist nvm ~off:999 ~len:1;
      model_persist m ~off:999 ~len:1;
      check_model "persist the partial line" nvm m;
      let src = Bytes.make 100 'r' in
      Nvm.restore nvm ~off:0 src;
      model_restore m ~off:0 src;
      check_model "restore over dirty lines" nvm m;
      write "dirty again before the crash" 700 70 'd';
      Nvm.crash nvm;
      model_crash m;
      check_model "crash" nvm m;
      Alcotest.(check int) "nothing dirty after crash" 0 (Nvm.dirty_lines nvm);
      for line = 0 to (size - 1) / 64 do
        let off = line * 64 in
        let len = min 64 (size - off) in
        Alcotest.check bytes_eq "durable = volatile" (Nvm.read nvm ~off ~len)
          (Nvm.read_durable nvm ~off ~len)
      done)

let prop_nvm_dirty_map_model =
  let op =
    QCheck.Gen.(
      map3
        (fun kind off len -> (kind, off, min len (1000 - off)))
        (int_bound 9) (int_bound 999) (int_bound 150))
  in
  qcase ~count:100 "dirty lines follow a set model"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      in_sim (fun e ->
          let nvm = make_nvm ~size:1000 e and m = model_create 1000 in
          List.iteri
            (fun i (kind, off, len) ->
              let src = Bytes.make len (Char.chr (65 + (i mod 26))) in
              if kind <= 4 then begin
                Nvm.write nvm ~off src;
                model_write m ~off src
              end
              else if kind <= 7 then begin
                Nvm.persist nvm ~off ~len;
                model_persist m ~off ~len
              end
              else if kind = 8 then begin
                Nvm.restore nvm ~off src;
                model_restore m ~off src
              end
              else begin
                Nvm.crash nvm;
                model_crash m
              end;
              check_model "step" nvm m)
            ops;
          true))

(* ---- lazily backed images against flat images ---- *)

(* Both images back only the written prefix; the flat model above is the
   fully allocated region they must read as. The region is not a multiple
   of a line and is larger than the first backing buffer, so offsets in
   its last bytes grow the prefix to the region's end in one jump. *)
let lazy_size = 8192 + 37

type nvm_op =
  | Write of int * int
  | Set_word of int * bool
  | Rmw of int * bool  (** whether [f] stores *)
  | Persist of int * int
  | Crash
  | Restore of int * int
  | Read of int * int
  | Read_durable of int * int

let show_nvm_op = function
  | Write (o, l) -> Printf.sprintf "write %d+%d" o l
  | Set_word (o, p) -> Printf.sprintf "set_word %d persist=%b" o p
  | Rmw (o, st) -> Printf.sprintf "rmw %d store=%b" o st
  | Persist (o, l) -> Printf.sprintf "persist %d+%d" o l
  | Crash -> "crash"
  | Restore (o, l) -> Printf.sprintf "restore %d+%d" o l
  | Read (o, l) -> Printf.sprintf "read %d+%d" o l
  | Read_durable (o, l) -> Printf.sprintf "read_durable %d+%d" o l

(* An offset for a [len]-byte access: mostly in the first lines, where
   stores lay out their data, sometimes in the region's last bytes and
   sometimes anywhere — so reads land inside the written prefix, across
   its edge and far past it. *)
let gen_off ~size len =
  QCheck.Gen.(
    frequency
      [
        (3, int_bound (min 400 (size - len)));
        (1, map (fun d -> max 0 (size - len - d)) (int_bound 64));
        (2, int_bound (size - len));
      ])

let gen_span ~size =
  QCheck.Gen.(
    int_bound 200 >>= fun len ->
    map (fun off -> (off, len)) (gen_off ~size len))

let gen_nvm_op =
  let size = lazy_size in
  QCheck.Gen.(
    frequency
      [
        (4, map (fun (o, l) -> Write (o, l)) (gen_span ~size));
        (2, map2 (fun o p -> Set_word (o, p)) (gen_off ~size 8) bool);
        (2, map2 (fun o st -> Rmw (o, st)) (gen_off ~size 8) bool);
        (3, map (fun (o, l) -> Persist (o, l)) (gen_span ~size));
        (1, return Crash);
        (1, map (fun (o, l) -> Restore (o, l)) (gen_span ~size));
        (3, map (fun (o, l) -> Read (o, l)) (gen_span ~size));
        (2, map (fun (o, l) -> Read_durable (o, l)) (gen_span ~size));
      ])

let model_word m off = Int64.to_int (Bytes.get_int64_le m.vol off)

let model_set_word m off w =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int w);
  model_write m ~off b

let prop_nvm_lazy_images =
  qcase ~count:200 "lazy images read as the flat region"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_nvm_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_nvm_op))
    (fun ops ->
      in_sim (fun e ->
          let nvm = make_nvm ~size:lazy_size e
          and m = model_create lazy_size in
          List.iteri
            (fun i op ->
              let what = show_nvm_op op in
              let src len = Bytes.make len (Char.chr (65 + (i mod 26))) in
              (match op with
              | Write (off, len) ->
                  let src = src len in
                  Nvm.write nvm ~off src;
                  model_write m ~off src
              | Set_word (off, persist) ->
                  let w = (i * 0x10001) + 1 in
                  Nvm.set_word nvm off w ~persist;
                  model_set_word m off w;
                  if persist then model_persist m ~off ~len:8
              | Rmw (off, store) ->
                  let expect = model_word m off in
                  let seen =
                    Nvm.cas_word nvm off ~mask:(-1)
                      ~expect:(if store then expect else expect lxor 1)
                      (expect + 7)
                  in
                  Alcotest.(check int) (what ^ ": word seen") expect seen;
                  if store then model_set_word m off (expect + 7)
              | Persist (off, len) ->
                  Nvm.persist nvm ~off ~len;
                  model_persist m ~off ~len
              | Crash ->
                  Nvm.crash nvm;
                  model_crash m
              | Restore (off, len) ->
                  let src = src len in
                  Nvm.restore nvm ~off src;
                  model_restore m ~off src
              | Read (off, len) ->
                  Alcotest.check bytes_eq what (Bytes.sub m.vol off len)
                    (Nvm.read nvm ~off ~len);
                  if len >= 8 then
                    Alcotest.(check int) (what ^ ": get_word")
                      (model_word m off) (Nvm.get_word nvm off)
              | Read_durable (off, len) ->
                  Alcotest.check bytes_eq what (Bytes.sub m.dur off len)
                    (Nvm.read_durable nvm ~off ~len));
              Alcotest.(check int)
                (what ^ ": dirty lines")
                (Hashtbl.length m.dirty) (Nvm.dirty_lines nvm))
            ops;
          check_model "end" nvm m;
          true))

let test_nvm_resident_bytes () =
  in_sim (fun e ->
      let nvm = make_nvm ~size:lazy_size e in
      Alcotest.(check int) "nothing backed before a store" 0
        (Nvm.resident_bytes nvm);
      ignore (Nvm.read nvm ~off:(lazy_size - 64) ~len:64);
      ignore (Nvm.get_word nvm 4000);
      Nvm.persist nvm ~off:0 ~len:lazy_size;
      Nvm.crash nvm;
      Alcotest.(check int) "reads, persists and crashes back nothing" 0
        (Nvm.resident_bytes nvm);
      Nvm.write nvm ~off:100 (Bytes.make 8 'x');
      Alcotest.(check int) "first store backs 4 KiB per image" (2 * 4096)
        (Nvm.resident_bytes nvm);
      Nvm.set_word nvm 4096 1 ~persist:true;
      Alcotest.(check int) "the next doubles it" (2 * 8192)
        (Nvm.resident_bytes nvm);
      Nvm.restore nvm ~off:(lazy_size - 8) (Bytes.make 8 'y');
      Alcotest.(check int) "never more than the region" (2 * lazy_size)
        (Nvm.resident_bytes nvm);
      Alcotest.(check int) "logical size unchanged" lazy_size (Nvm.size nvm))

(* ---- words and atomic RMW ---- *)

let test_nvm_word_roundtrip () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.set_word nvm 8 0x1122334455667788 ~persist:false;
      Alcotest.(check int) "roundtrip" 0x1122334455667788 (Nvm.get_word nvm 8);
      List.iter
        (fun w ->
          Nvm.set_word nvm 16 w ~persist:false;
          Alcotest.(check int) (Printf.sprintf "roundtrip %d" w) w
            (Nvm.get_word nvm 16))
        [ -1; min_int; max_int; 1 lsl 62; 0 ];
      Nvm.set_word nvm 24 (-1) ~persist:false;
      Alcotest.(check string) "-1 is all ones" (String.make 8 '\255')
        (Bytes.to_string (Nvm.read nvm ~off:24 ~len:8)))

let test_nvm_word_persist_flag () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.set_word nvm 0 111 ~persist:true;
      Nvm.set_word nvm 512 222 ~persist:false;
      Nvm.crash nvm;
      Alcotest.(check int) "persisted word" 111 (Nvm.get_word nvm 0);
      Alcotest.(check int) "volatile word lost" 0 (Nvm.get_word nvm 512))

let test_nvm_atomic_rmw_applies () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.set_word nvm 0 10 ~persist:false;
      let seen = Nvm.cas_word nvm 0 ~mask:(-1) ~expect:10 11 in
      Alcotest.(check int) "saw old" 10 seen;
      Alcotest.(check int) "applied" 11 (Nvm.get_word nvm 0);
      (* The mask drops bits from the compare: bit 62 is ignored here. *)
      Nvm.set_word nvm 0 (10 lor (1 lsl 62)) ~persist:false;
      let mask = lnot (1 lsl 62) in
      Alcotest.(check int) "masked saw old" (10 lor (1 lsl 62))
        (Nvm.cas_word nvm 0 ~mask ~expect:10 12);
      Alcotest.(check int) "masked applied" 12 (Nvm.get_word nvm 0);
      Alcotest.(check int) "swap saw old" 12
        (Nvm.cas_word nvm 0 ~mask:0 ~expect:0 13);
      Alcotest.(check int) "swap applied" 13 (Nvm.get_word nvm 0))

let test_nvm_atomic_rmw_can_decline () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Nvm.set_word nvm 0 10 ~persist:true;
      let seen = Nvm.cas_word nvm 0 ~mask:(-1) ~expect:99 1 in
      Alcotest.(check int) "saw" 10 seen;
      Alcotest.(check int) "unchanged" 10 (Nvm.get_word nvm 0);
      Alcotest.(check int) "line left clean" 0 (Nvm.dirty_lines nvm))

let test_nvm_atomic_rmw_is_atomic_under_contention () =
  (* N processes increment the same word with CAS loops; every increment
     must survive despite the interleaving (the load before each CAS is a
     timed access, so other processes do get in between). *)
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:4096 () in
  let n = 10 and per = 50 in
  let retries = ref 0 in
  for _ = 1 to n do
    Engine.spawn e (fun () ->
        for _ = 1 to per do
          let rec incr () =
            let cur = Nvm.get_word nvm 0 in
            if Nvm.cas_word nvm 0 ~mask:(-1) ~expect:cur (cur + 1) <> cur
            then begin
              Stdlib.incr retries;
              incr ()
            end
          in
          incr ();
          Engine.delay 1e-7
        done)
  done;
  ignore (Engine.run e);
  let final = ref 0 in
  Engine.spawn e (fun () -> final := Nvm.get_word nvm 0);
  ignore (Engine.run e);
  Alcotest.(check int) "all increments applied" (n * per) !final;
  Alcotest.(check bool) "some CAS lost a race" true (!retries > 0)

let test_nvm_atomic_rmw_crash_durable () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      let durable off =
        Int64.to_int (Bytes.get_int64_le (Nvm.read_durable nvm ~off ~len:8) 0)
      in
      Nvm.set_word nvm 64 5 ~persist:true;
      ignore (Nvm.cas_word nvm 64 ~mask:(-1) ~expect:5 6 : int);
      Alcotest.(check int) "volatile has the swap" 6 (Nvm.get_word nvm 64);
      Alcotest.(check int) "durable has not" 5 (durable 64);
      Nvm.crash nvm;
      Alcotest.(check int) "crash drops the unpersisted swap" 5
        (Nvm.get_word nvm 64);
      ignore (Nvm.cas_word nvm 64 ~mask:(-1) ~expect:5 (1 lsl 62) : int);
      Nvm.persist nvm ~off:64 ~len:8;
      Nvm.crash nvm;
      Alcotest.(check int) "persisted swap survives" (1 lsl 62) (durable 64);
      Alcotest.(check int) "and reads back" (1 lsl 62) (Nvm.get_word nvm 64))

let test_nvm_allocation_accounting () =
  in_sim (fun e ->
      let nvm = make_nvm e in
      Alcotest.(check int) "fresh" 0 (Nvm.allocated nvm);
      Nvm.note_alloc nvm 1024;
      Alcotest.(check int) "allocated" 1024 (Nvm.allocated nvm))

let prop_nvm_crash_partition =
  (* Property: after arbitrary (write, persist?) sequences and a crash,
     every persisted write is visible and every never-persisted line is
     zero or holds a persisted value. We verify the stronger, simpler
     invariant that persisted writes survive. *)
  qcase ~count:50 "persisted writes survive crash"
    QCheck.(small_list (pair (int_bound 63) bool))
    (fun ops ->
      in_sim (fun e ->
          let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:8192 () in
          let expect = Hashtbl.create 16 in
          List.iteri
            (fun i (slot, persist) ->
              let off = slot * 128 in
              let data = Bytes.of_string (Printf.sprintf "%08d" i) in
              Nvm.write nvm ~off data;
              if persist then begin
                Nvm.persist nvm ~off ~len:8;
                Hashtbl.replace expect off data
              end)
            ops;
          Nvm.crash nvm;
          Hashtbl.fold
            (fun off data acc ->
              acc && Bytes.equal (Nvm.read_durable nvm ~off ~len:8) data)
            expect true))

(* ---- Ssd_image ---- *)

let test_image_roundtrip () =
  let img = Ssd_image.create ~size:8192 in
  Ssd_image.write img ~off:1000 (Bytes.of_string "ssd data");
  Alcotest.check bytes_eq "roundtrip" (Bytes.of_string "ssd data")
    (Ssd_image.read img ~off:1000 ~len:8)

let test_image_zero_initialized () =
  let img = Ssd_image.create ~size:4096 in
  Alcotest.check bytes_eq "zeroed" (Bytes.make 16 '\000')
    (Ssd_image.read img ~off:0 ~len:16)

let test_image_bounds () =
  let img = Ssd_image.create ~size:4096 in
  try
    Ssd_image.write img ~off:4090 (Bytes.make 16 'x');
    Alcotest.fail "expected bounds failure"
  with Invalid_argument _ -> ()

let test_image_blit_to () =
  let img = Ssd_image.create ~size:4096 in
  Ssd_image.write img ~off:0 (Bytes.of_string "abcdef");
  let dst = Bytes.make 10 '.' in
  Ssd_image.blit_to img ~off:2 dst ~dst_off:3 ~len:3;
  Alcotest.check bytes_eq "blit" (Bytes.of_string "...cde....") dst

type image_op =
  | Img_write of int * int
  | Img_read of int * int
  | Img_blit of int * int * int  (** image offset, length, dest offset *)

let show_image_op = function
  | Img_write (o, l) -> Printf.sprintf "write %d+%d" o l
  | Img_read (o, l) -> Printf.sprintf "read %d+%d" o l
  | Img_blit (o, l, d) -> Printf.sprintf "blit %d+%d to %d" o l d

let prop_image_lazy =
  let size = lazy_size in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (2, map (fun (o, l) -> Img_write (o, l)) (gen_span ~size));
          (2, map (fun (o, l) -> Img_read (o, l)) (gen_span ~size));
          ( 2,
            map2
              (fun (o, l) d -> Img_blit (o, l, d))
              (gen_span ~size) (int_bound 50) );
        ])
  in
  qcase ~count:200 "lazy ssd image reads as the flat image"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_image_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let img = Ssd_image.create ~size and flat = Bytes.make size '\000' in
      List.iteri
        (fun i op ->
          let what = show_image_op op in
          match op with
          | Img_write (off, len) ->
              let src = Bytes.make len (Char.chr (97 + (i mod 26))) in
              Ssd_image.write img ~off src;
              Bytes.blit src 0 flat off len
          | Img_read (off, len) ->
              Alcotest.check bytes_eq what (Bytes.sub flat off len)
                (Ssd_image.read img ~off ~len)
          | Img_blit (off, len, dst_off) ->
              (* Pre-filled, so a blit that skips bytes past the prefix
                 leaves them showing. *)
              let dst = Bytes.make (dst_off + len + 3) '.' in
              let expect = Bytes.copy dst in
              Ssd_image.blit_to img ~off dst ~dst_off ~len;
              Bytes.blit flat off expect dst_off len;
              Alcotest.check bytes_eq what expect dst)
        ops;
      Alcotest.check bytes_eq "whole image" flat
        (Ssd_image.read img ~off:0 ~len:size);
      let writes =
        List.filter (function Img_write _ -> true | _ -> false) ops
      in
      Alcotest.(check int) "writes counted" (List.length writes)
        (Ssd_image.write_count img);
      true)

let test_image_resident_bytes () =
  let img = Ssd_image.create ~size:lazy_size in
  ignore (Ssd_image.read img ~off:(lazy_size - 16) ~len:16);
  Alcotest.(check int) "nothing backed before a write" 0
    (Ssd_image.resident_bytes img);
  Ssd_image.write img ~off:0 (Bytes.make 100 'x');
  Alcotest.(check int) "first write backs 4 KiB" 4096
    (Ssd_image.resident_bytes img);
  Ssd_image.write img ~off:(lazy_size - 1) (Bytes.make 1 'y');
  Alcotest.(check int) "never more than the image" lazy_size
    (Ssd_image.resident_bytes img);
  Alcotest.(check int) "logical size unchanged" lazy_size
    (Ssd_image.size img)

let () =
  Alcotest.run "media"
    [
      ( "nvm-basic",
        [
          case "roundtrip" test_nvm_write_read_roundtrip;
          case "bounds" test_nvm_bounds_checked;
          case "charges time" test_nvm_charges_time;
          case "alloc accounting" test_nvm_allocation_accounting;
        ] );
      ( "nvm-persistence",
        [
          case "unpersisted lost" test_nvm_unpersisted_write_lost_on_crash;
          case "persisted survives" test_nvm_persisted_write_survives_crash;
          case "partial persist" test_nvm_partial_persist;
          case "line granularity" test_nvm_same_line_covered_by_one_flush;
          case "dirty tracking" test_nvm_dirty_lines_tracking;
          case "rewrite after persist" test_nvm_rewrite_after_persist;
          case "dirty map vs model" test_nvm_dirty_map_model;
          prop_nvm_dirty_map_model;
          prop_nvm_crash_partition;
          prop_nvm_lazy_images;
          case "resident bytes" test_nvm_resident_bytes;
        ] );
      ( "nvm-atomic",
        [
          case "word roundtrip" test_nvm_word_roundtrip;
          case "word persist flag" test_nvm_word_persist_flag;
          case "rmw applies" test_nvm_atomic_rmw_applies;
          case "rmw declines" test_nvm_atomic_rmw_can_decline;
          case "rmw contention" test_nvm_atomic_rmw_is_atomic_under_contention;
          case "rmw crash then durable read" test_nvm_atomic_rmw_crash_durable;
        ] );
      ( "ssd-image",
        [
          case "roundtrip" test_image_roundtrip;
          case "zeroed" test_image_zero_initialized;
          case "bounds" test_image_bounds;
          case "blit" test_image_blit_to;
          prop_image_lazy;
          case "resident bytes" test_image_resident_bytes;
        ] );
    ]
