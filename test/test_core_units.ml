(* Unit tests for Prism's core components in isolation: location encoding,
   HSIT protocols, PWB ring, Value Storage chunks + GC, epoch reclamation,
   TCQ / TA batching, SVC cache mechanics. *)

open Prism_sim
open Prism_core
open Prism_device
open Prism_media
open Helpers

(* ---- Location ---- *)

let loc_testable =
  Alcotest.testable Location.pp Location.equal

let test_location_roundtrips () =
  let locs =
    [
      Location.Nowhere;
      Location.In_pwb { thread = 0; voff = 0 };
      Location.In_pwb { thread = 11; voff = 123456789 };
      Location.In_vs { vs = 0; gen = 0; chunk = 0; slot = 0 };
      Location.In_vs { vs = 7; gen = 1234; chunk = 99999; slot = 321 };
      Location.In_vs { vs = 255; gen = (1 lsl 17) - 1; chunk = (1 lsl 20) - 1; slot = (1 lsl 15) - 1 };
    ]
  in
  List.iter
    (fun loc ->
      List.iter
        (fun dirty ->
          let w = Location.encode loc ~dirty in
          let loc' = Location.decode w and dirty' = Location.is_dirty w in
          Alcotest.check loc_testable "roundtrip" loc loc';
          Alcotest.(check bool) "dirty bit" dirty dirty')
        [ false; true ])
    locs

let test_location_out_of_range () =
  Alcotest.(check bool) "thread too large" true
    (try
       ignore (Location.encode (Location.In_pwb { thread = 5000; voff = 0 }) ~dirty:false);
       false
     with Invalid_argument _ -> true);
  (* Tag 3 encodes no location: a word carrying it is corrupt. *)
  Alcotest.(check bool) "tag 3 rejected" true
    (try
       ignore (Location.decode (3 lsl 60));
       false
     with Invalid_argument _ -> true)

let test_location_set_dirty () =
  let w = Location.encode (Location.In_pwb { thread = 1; voff = 2 }) ~dirty:false in
  let w' = Location.set_dirty w true in
  let dirty = Location.is_dirty w' in
  Alcotest.(check bool) "set" true dirty;
  Alcotest.(check int) "clear restores" w (Location.set_dirty w' false)

let test_location_same_slot_ignores_gen () =
  let a = Location.In_vs { vs = 1; gen = 5; chunk = 2; slot = 3 } in
  let b = Location.In_vs { vs = 1; gen = 9; chunk = 2; slot = 3 } in
  Alcotest.(check bool) "same slot" true (Location.same_slot a b);
  Alcotest.(check bool) "not equal" false (Location.equal a b)

let prop_location_roundtrip =
  qcase "random In_vs roundtrips"
    QCheck.(quad (int_bound 255) (int_bound ((1 lsl 17) - 1)) (int_bound ((1 lsl 20) - 1)) (int_bound ((1 lsl 15) - 1)))
    (fun (vs, gen, chunk, slot) ->
      let loc = Location.In_vs { vs; gen; chunk; slot } in
      let loc' = Location.decode (Location.encode loc ~dirty:false) in
      Location.equal loc loc')

(* The packed word's former [int64] codec, kept here as the reference
   the immediate-[int] codec must agree with bit for bit. *)
module Int64_codec = struct
  open Location

  let dirty_bit = Int64.shift_left 1L 62

  let encode loc ~dirty =
    let payload =
      match loc with
      | Nowhere -> 0L
      | In_pwb { thread; voff } ->
          if thread < 0 || thread > (1 lsl 12) - 1 || voff < 0
             || voff > (1 lsl 44) - 1
          then invalid_arg "encode";
          Int64.logor
            (Int64.shift_left (Int64.of_int thread) 44)
            (Int64.of_int voff)
      | In_vs { vs; gen; chunk; slot } ->
          if vs < 0 || vs > 255 || chunk < 0 || chunk > (1 lsl 20) - 1
             || slot < 0 || slot > (1 lsl 15) - 1
          then invalid_arg "encode";
          let gen = gen land ((1 lsl 17) - 1) in
          Int64.of_int
            (slot lor (chunk lsl 15) lor (gen lsl 35) lor (vs lsl 52))
    in
    let tag =
      match loc with Nowhere -> 0L | In_pwb _ -> 1L | In_vs _ -> 2L
    in
    let w = Int64.logor (Int64.shift_left tag 60) payload in
    if dirty then Int64.logor w dirty_bit else w

  let decode w =
    let dirty = Int64.logand w dirty_bit <> 0L in
    let field shift bits =
      Int64.to_int
        (Int64.logand
           (Int64.shift_right_logical w shift)
           (Int64.of_int ((1 lsl bits) - 1)))
    in
    let loc =
      match field 60 2 with
      | 0 -> Nowhere
      | 1 -> In_pwb { thread = field 44 12; voff = field 0 44 }
      | 2 ->
          In_vs
            {
              vs = field 52 8;
              gen = field 35 17;
              chunk = field 15 20;
              slot = field 0 15;
            }
      | _ -> invalid_arg "decode"
    in
    (loc, dirty)
end

(* Every field drawn from 0, its maximum or anywhere between. *)
let gen_location =
  let field bits =
    let max = (1 lsl bits) - 1 in
    QCheck.Gen.(
      frequency [ (1, return 0); (1, return max); (2, int_bound max) ])
  in
  QCheck.Gen.(
    oneof
      [
        return Location.Nowhere;
        map2
          (fun thread voff -> Location.In_pwb { thread; voff })
          (field 12) (field 44);
        map
          (fun (vs, gen, chunk, slot) ->
            Location.In_vs { vs; gen; chunk; slot })
          (quad (field 8) (field 17) (field 20) (field 15));
      ])

let prop_location_matches_int64_codec =
  qcase ~count:1000 "int word codec matches the int64 codec"
    (QCheck.make
       ~print:(fun (loc, dirty) ->
         Format.asprintf "%a dirty=%b" Location.pp loc dirty)
       QCheck.Gen.(pair gen_location bool))
    (fun (loc, dirty) ->
      let w = Location.encode loc ~dirty in
      let w64 = Int64_codec.encode loc ~dirty in
      let loc64, dirty64 = Int64_codec.decode w64 in
      Int64.to_int w64 = w
      && Int64.equal (Int64.of_int w |> Int64.logand Int64.max_int) w64
      && Location.equal (Location.decode w) loc64
      && Location.is_dirty w = dirty64
      && Location.equal loc64 loc && dirty64 = dirty)

(* ---- Hsit ---- *)

let make_nvm_hsit ?(capacity = 64) e =
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  (nvm, Hsit.create nvm ~capacity)

let test_hsit_alloc_free () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let a = Hsit.alloc h in
      let b = Hsit.alloc h in
      Alcotest.(check bool) "distinct" true (a <> b);
      Alcotest.(check int) "live" 2 (Hsit.live h);
      Hsit.free h a;
      Alcotest.(check int) "after free" 1 (Hsit.live h);
      let c = Hsit.alloc h in
      Alcotest.(check int) "reuses freed id" a c)

let test_hsit_full () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit ~capacity:2 e in
      ignore (Hsit.alloc h);
      ignore (Hsit.alloc h);
      Alcotest.check_raises "full" (Failure "Hsit.alloc: table full") (fun () ->
          ignore (Hsit.alloc h)))

let test_hsit_write_read_primary () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      Alcotest.check loc_testable "initial" Location.Nowhere
        (Hsit.read_primary h id);
      let loc = Location.In_pwb { thread = 3; voff = 42 } in
      Hsit.write_primary h id loc;
      Alcotest.check loc_testable "written" loc (Hsit.read_primary h id))

let test_hsit_update_cas_semantics () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      let a = Location.In_pwb { thread = 0; voff = 1 } in
      let b = Location.In_pwb { thread = 0; voff = 2 } in
      Hsit.write_primary h id a;
      Alcotest.(check bool) "wrong expect fails" false
        (Hsit.update_primary h id ~expect:b a);
      Alcotest.(check bool) "right expect wins" true
        (Hsit.update_primary h id ~expect:a b);
      Alcotest.check loc_testable "updated" b (Hsit.read_primary h id))

let test_hsit_durable_after_write () =
  in_sim (fun e ->
      let nvm, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      let loc = Location.In_pwb { thread = 1; voff = 7 } in
      Hsit.write_primary h id loc;
      Nvm.crash nvm;
      Alcotest.check loc_testable "survives crash" loc
        (Hsit.durable_primary h id))

let test_hsit_cas_race_lost_update () =
  (* Regression for the lost-update bug: two processes race a CAS and an
     unconditional write; the unconditional write (newer value) must never
     be overwritten by the CAS that started earlier. *)
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let h = Hsit.create nvm ~capacity:8 in
  let id = ref 0 in
  let old_loc = Location.In_pwb { thread = 0; voff = 0 } in
  let relocated = Location.In_vs { vs = 0; gen = 0; chunk = 1; slot = 1 } in
  let newer = Location.In_pwb { thread = 0; voff = 100 } in
  Engine.spawn e (fun () ->
      id := Hsit.alloc h;
      Hsit.write_primary h !id old_loc);
  (* Reclaimer-like CAS. *)
  Engine.spawn e (fun () ->
      Engine.delay 1e-6;
      ignore (Hsit.update_primary h !id ~expect:old_loc relocated));
  (* Writer-like unconditional update landing in the CAS window. *)
  Engine.spawn e (fun () ->
      Engine.delay 1e-6;
      Hsit.write_primary h !id newer);
  ignore (Engine.run e);
  let final = ref Location.Nowhere in
  Engine.spawn e (fun () -> final := Hsit.read_primary h !id);
  ignore (Engine.run e);
  Alcotest.(check bool) "newer value never reverted" true
    (Location.equal !final newer || Location.equal !final relocated);
  (* Stronger: if the CAS succeeded it must have happened BEFORE the
     writer; either way the final value cannot be old_loc. *)
  Alcotest.(check bool) "old value gone" false (Location.equal !final old_loc)

let test_hsit_svc_pointer () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      Alcotest.(check (option int)) "initial" None (Hsit.read_svc h id);
      Alcotest.(check bool) "cas from none" true
        (Hsit.cas_svc_index h id ~expect:(-1) 5);
      Alcotest.(check (option int)) "set" (Some 5) (Hsit.read_svc h id);
      Alcotest.(check bool) "cas wrong expect" false
        (Hsit.cas_svc_index h id ~expect:(-1) 6);
      Alcotest.(check bool) "cas right expect" true
        (Hsit.cas_svc_index h id ~expect:5 (-1));
      Alcotest.(check (option int)) "cleared" None (Hsit.read_svc h id))

let test_hsit_svc_not_persisted () =
  in_sim (fun e ->
      let nvm, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      Alcotest.(check bool) "cas from none" true
        (Hsit.cas_svc_index h id ~expect:(-1) 9);
      Nvm.crash nvm;
      Hsit.recover_entry h id;
      Alcotest.(check (option int)) "nullified on recovery" None
        (Hsit.read_svc h id))

let test_hsit_flush_on_read () =
  (* A dirty-but-persisted pointer read by another thread gets its dirty
     bit cleared by that reader. We simulate by checking read_primary on a
     freshly written (hence briefly dirty) entry returns the right loc. *)
  in_sim (fun e ->
      let _, h = make_nvm_hsit e in
      let id = Hsit.alloc h in
      let loc = Location.In_pwb { thread = 2; voff = 16 } in
      Hsit.write_primary h id loc;
      Alcotest.check loc_testable "read sees value" loc (Hsit.read_primary h id);
      Alcotest.check loc_testable "second read stable" loc (Hsit.read_primary h id))

let test_hsit_rebuild_free_list () =
  in_sim (fun e ->
      let _, h = make_nvm_hsit ~capacity:8 e in
      let ids = List.init 5 (fun _ -> Hsit.alloc h) in
      ignore ids;
      Hsit.rebuild_free_list h ~reachable:(fun id -> id < 2);
      Alcotest.(check int) "two live" 2 (Hsit.live h);
      (* Allocation must hand out only ids >= 2 (the unreachable ones). *)
      let fresh = List.init 6 (fun _ -> Hsit.alloc h) in
      Alcotest.(check bool) "no clash with live" true
        (List.for_all (fun id -> id >= 2) fresh))

(* ---- Pwb ---- *)

let make_pwb ?(size = 4096) e =
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  (nvm, Pwb.create nvm ~thread:0 ~size)

let test_pwb_append_read () =
  in_sim (fun e ->
      let _, p = make_pwb e in
      let voff = Pwb.append p ~hsit_id:7 ~value:(Bytes.of_string "payload") in
      let data = Pwb.read p ~voff ~hsit_id:7 in
      Alcotest.check bytes_eq "payload" (Bytes.of_string "payload") data;
      Alcotest.check bytes_eq "another backptr reads nothing" Bytes.empty
        (Pwb.read p ~voff ~hsit_id:8))

let test_pwb_monotonic_voffs () =
  in_sim (fun e ->
      let _, p = make_pwb e in
      let a = Pwb.append p ~hsit_id:1 ~value:(Bytes.make 10 'a') in
      let b = Pwb.append p ~hsit_id:2 ~value:(Bytes.make 10 'b') in
      Alcotest.(check bool) "monotone" true (b > a))

let test_pwb_utilization_and_advance () =
  in_sim (fun e ->
      let _, p = make_pwb ~size:1024 e in
      Alcotest.(check (float 0.001)) "empty" 0.0 (Pwb.utilization p);
      let v1 = Pwb.append p ~hsit_id:1 ~value:(Bytes.make 100 'x') in
      ignore v1;
      Alcotest.(check bool) "in use" true (Pwb.utilization p > 0.1);
      Pwb.advance_head p ~to_:(Pwb.tail p);
      Alcotest.(check (float 0.001)) "drained" 0.0 (Pwb.utilization p))

let test_pwb_wraparound () =
  in_sim (fun e ->
      let _, p = make_pwb ~size:512 e in
      (* Fill/drain several times to force wrapping. *)
      for round = 0 to 9 do
        let voffs =
          List.init 3 (fun i ->
              (i, Pwb.append p ~hsit_id:i ~value:(value ~size:100 (round + i))))
        in
        List.iter
          (fun (i, voff) ->
            let data = Pwb.read p ~voff ~hsit_id:i in
            Alcotest.check bytes_eq "data survives wrap"
              (value ~size:100 (round + i))
              data)
          voffs;
        Pwb.advance_head p ~to_:(Pwb.tail p)
      done)

let test_pwb_blocks_when_full_until_advance () =
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let p = Pwb.create nvm ~thread:0 ~size:512 in
  let appended = ref 0 in
  Engine.spawn e (fun () ->
      for i = 0 to 4 do
        ignore (Pwb.append p ~hsit_id:i ~value:(Bytes.make 120 'x'));
        incr appended
      done);
  Engine.spawn e (fun () ->
      Engine.delay 1e-3;
      (* Appender must be stuck well before 5 appends (3*136 < 512 < 4*136). *)
      Alcotest.(check bool) "blocked" true (!appended < 5);
      Pwb.advance_head p ~to_:(Pwb.tail p));
  ignore (Engine.run e);
  Alcotest.(check int) "all eventually appended" 5 !appended

let test_pwb_fold_records_skips_pads () =
  in_sim (fun e ->
      let _, p = make_pwb ~size:512 e in
      (* Appends sized to force a pad before the wrap. *)
      let voffs = ref [] in
      for i = 0 to 2 do
        voffs := Pwb.append p ~hsit_id:i ~value:(Bytes.make 100 'x') :: !voffs
      done;
      Pwb.advance_head p ~to_:(List.nth (List.rev !voffs) 1);
      ignore (Pwb.append p ~hsit_id:3 ~value:(Bytes.make 100 'y'));
      let seen = Pwb.fold_records p (fun acc ~voff:_ ~hsit_id ~len:_ -> hsit_id :: acc) [] in
      Alcotest.(check (list int)) "live records in order" [ 1; 2; 3 ]
        (List.rev seen))

let test_pwb_read_durable_coupling () =
  in_sim (fun e ->
      let nvm, p = make_pwb e in
      let voff = Pwb.append p ~hsit_id:5 ~value:(Bytes.of_string "keepme") in
      Nvm.crash nvm;
      let found = [| -1 |] in
      let data = Pwb.read_durable p ~voff found in
      Alcotest.(check int) "backptr" 5 found.(0);
      Alcotest.check bytes_eq "data" (Bytes.of_string "keepme") data;
      ignore (Pwb.read_durable p ~voff:(Pwb.tail p + 64) found);
      Alcotest.(check int) "out of range" (-1) found.(0))

let test_pwb_too_large_value_rejected () =
  in_sim (fun e ->
      let _, p = make_pwb ~size:512 e in
      try
        ignore (Pwb.append p ~hsit_id:0 ~value:(Bytes.make 400 'x'));
        Alcotest.fail "expected rejection"
      with Invalid_argument _ -> ())

let prop_pwb_ring_model =
  (* Random interleaving of appends and head advances against a queue
     model: every record still inside [head, tail) reads back exactly. *)
  qcase ~count:50 "ring preserves live records"
    QCheck.(small_list (pair bool (int_range 1 120)))
    (fun ops ->
      in_sim (fun e ->
          ignore e;
          let nvm =
            Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) ()
          in
          let p = Pwb.create nvm ~thread:0 ~size:2048 in
          let live = Queue.create () in
          let ok = ref true in
          List.iteri
            (fun i (advance, len) ->
              if advance then begin
                (* Drop roughly half of the live records. *)
                let keep = Queue.length live / 2 in
                while Queue.length live > keep do
                  ignore (Queue.pop live)
                done;
                let to_ =
                  match Queue.peek_opt live with
                  | Some (voff, _, _) -> voff
                  | None -> Pwb.tail p
                in
                Pwb.advance_head p ~to_
              end
              else if
                (* Only append when it cannot block (model stays simple). *)
                Pwb.used p + len + 64 < Pwb.capacity p
              then begin
                let data = value ~size:len i in
                let voff = Pwb.append p ~hsit_id:i ~value:data in
                Queue.add (voff, i, data) live
              end)
            ops;
          Queue.iter
            (fun (voff, id, data) ->
              let data' = Pwb.read p ~voff ~hsit_id:id in
              if not (Bytes.equal data' data) then ok := false)
            live;
          !ok))

(* ---- Epoch ---- *)

let test_epoch_basic_reclamation () =
  let ep = Epoch.create ~threads:2 in
  let freed = ref false in
  Epoch.retire ep (fun _ -> freed := true) 0;
  Alcotest.(check int) "pending" 1 (Epoch.pending ep);
  Epoch.pin ep ~tid:0;
  Epoch.unpin ep ~tid:0;
  Epoch.pin ep ~tid:0;
  Epoch.unpin ep ~tid:0;
  Alcotest.(check bool) "freed after two epochs" true !freed

let test_epoch_pinned_blocks_advance () =
  let ep = Epoch.create ~threads:2 in
  let freed = ref false in
  Epoch.pin ep ~tid:1;
  Epoch.retire ep (fun _ -> freed := true) 0;
  (* Thread 0 churns, but thread 1 stays pinned in the old epoch. *)
  for _ = 1 to 5 do
    Epoch.pin ep ~tid:0;
    Epoch.unpin ep ~tid:0
  done;
  Alcotest.(check bool) "still pending" false !freed;
  Epoch.unpin ep ~tid:1;
  Epoch.pin ep ~tid:0;
  Epoch.unpin ep ~tid:0;
  Epoch.pin ep ~tid:0;
  Epoch.unpin ep ~tid:0;
  Alcotest.(check bool) "freed after unpin" true !freed

let test_epoch_drain () =
  let ep = Epoch.create ~threads:1 in
  let count = ref 0 in
  for _ = 1 to 10 do
    Epoch.retire ep (fun _ -> incr count) 0
  done;
  Epoch.drain ep;
  Alcotest.(check int) "all freed" 10 !count

let test_epoch_reset_discards () =
  let ep = Epoch.create ~threads:1 in
  let ran = ref false in
  Epoch.pin ep ~tid:0;
  Epoch.retire ep (fun _ -> ran := true) 0;
  Epoch.reset ep;
  Epoch.drain ep;
  Alcotest.(check bool) "discarded, not run" false !ran;
  Alcotest.(check int) "queue empty" 0 (Epoch.pending ep)

let test_epoch_double_pin_rejected () =
  let ep = Epoch.create ~threads:1 in
  Epoch.pin ep ~tid:0;
  Alcotest.check_raises "double pin" (Invalid_argument "Epoch.pin: already pinned")
    (fun () -> Epoch.pin ep ~tid:0)

let test_epoch_with_pinned_exception_safe () =
  let ep = Epoch.create ~threads:1 in
  (try Epoch.with_pinned ep ~tid:0 (fun () -> failwith "x")
   with Failure _ -> ());
  (* Must be unpinned now. *)
  Epoch.with_pinned ep ~tid:0 (fun () -> ())

(* ---- Value storage ---- *)

let make_vs ?(size = 64 * 16 * 1024) ?(chunk_size = 16 * 1024)
    ?(gc_watermark = 0.75) e =
  Value_storage.create e ~id:0 ~size ~chunk_size ~queue_depth:16
    ~spec:Spec.samsung_980_pro ~cost:Cost.default ~gc_watermark

let test_vs_write_read_chunk () =
  in_sim (fun e ->
      let vs = make_vs e in
      let values = List.init 5 (fun i -> (i + 100, value ~size:200 i)) in
      let chunk, gen, done_ = Value_storage.write_chunk vs values in
      Io_uring.await done_;
      Value_storage.seal vs ~chunk;
      List.iteri
        (fun slot (id, v) ->
          Alcotest.(check int) "backptr" id
            (Value_storage.backptr vs ~gen ~chunk ~slot);
          match Value_storage.read_slot_sync vs ~gen ~chunk ~slot with
          | Some data -> Alcotest.check bytes_eq "payload" v data
          | None -> Alcotest.fail "slot unreadable")
        values)

let test_vs_validity_bitmap () =
  in_sim (fun e ->
      let vs = make_vs e in
      let chunk, gen, done_ =
        Value_storage.write_chunk vs [ (1, value 1); (2, value 2) ]
      in
      Io_uring.await done_;
      Value_storage.seal vs ~chunk;
      Alcotest.(check int) "initially invalid" 0 (Value_storage.live_slots vs ~chunk);
      Value_storage.set_valid vs ~gen ~chunk ~slot:0 true;
      Value_storage.set_valid vs ~gen ~chunk ~slot:1 true;
      Alcotest.(check int) "both live" 2 (Value_storage.live_slots vs ~chunk);
      Value_storage.set_valid vs ~gen ~chunk ~slot:0 false;
      Alcotest.(check int) "one live" 1 (Value_storage.live_slots vs ~chunk);
      Alcotest.(check bool) "is_valid" true
        (Value_storage.is_valid vs ~gen ~chunk ~slot:1))

let test_vs_stale_gen_rejected () =
  in_sim (fun e ->
      let vs = make_vs e in
      let chunk, gen, done_ = Value_storage.write_chunk vs [ (1, value 1) ] in
      Io_uring.await done_;
      Value_storage.seal vs ~chunk;
      let stale = gen + 1 in
      Alcotest.(check int) "backptr stale" (-1)
        (Value_storage.backptr vs ~gen:stale ~chunk ~slot:0);
      Alcotest.(check bool) "is_valid stale" false
        (Value_storage.is_valid vs ~gen:stale ~chunk ~slot:0);
      (* Stale set_valid must be a no-op. *)
      Value_storage.set_valid vs ~gen:stale ~chunk ~slot:0 true;
      Alcotest.(check int) "untouched" 0 (Value_storage.live_slots vs ~chunk))

let test_vs_chunk_exhaustion_blocks () =
  (* Writing more chunks than exist must block rather than fail; freeing
     chunks releases writers. *)
  let e = Engine.create () in
  let vs =
    Value_storage.create e ~id:0 ~size:(4 * 16 * 1024) ~chunk_size:(16 * 1024)
      ~queue_depth:16 ~spec:Spec.samsung_980_pro ~cost:Cost.default
      ~gc_watermark:0.75
  in
  let written = ref 0 in
  Engine.spawn e (fun () ->
      for i = 0 to 4 do
        let chunk, _, done_ = Value_storage.write_chunk vs [ (i, value i) ] in
        Io_uring.await done_;
        Value_storage.seal vs ~chunk;
        incr written
      done);
  ignore (Engine.run ~until:1.0 e);
  (* 4 chunks, 1 reserved for GC: 3 writes succeed, the 4th blocks. *)
  Alcotest.(check int) "blocked at reserve" 3 !written

(* Writes 8 chunks of 4 values (HSIT ids from [h]) into [vs], then
   kills 3 of the 4 slots in every chunk, leaving GC the garbage to
   compact. Returns the ids; the survivors are those at multiples of 4. *)
let fill_with_garbage h vs =
  let ids = Array.make 32 (-1) in
  for c = 0 to 7 do
    let values = List.init 4 (fun i -> (c * 4) + i) in
    let batch =
      List.map
        (fun i ->
          ids.(i) <- Hsit.alloc h;
          (ids.(i), value ~size:2000 i))
        values
    in
    let chunk, gen, done_ = Value_storage.write_chunk vs batch in
    Io_uring.await done_;
    List.iteri
      (fun slot i ->
        let loc = Location.In_vs { vs = Value_storage.id vs; gen; chunk; slot } in
        Hsit.write_primary h ids.(i) loc;
        Value_storage.set_valid vs ~gen ~chunk ~slot true)
      values;
    Value_storage.seal vs ~chunk
  done;
  for c = 0 to 7 do
    for s = 1 to 3 do
      let i = (c * 4) + s in
      match Hsit.read_primary h ids.(i) with
      | Location.In_vs { gen; chunk; slot; _ } ->
          Value_storage.set_valid vs ~gen ~chunk ~slot false;
          Hsit.write_primary h ids.(i) Location.Nowhere
      | _ -> Alcotest.fail "expected VS location"
    done
  done;
  ids

let relocate_in h ~hsit_id ~from_ ~to_ =
  Hsit.update_primary_word h hsit_id ~expect:from_ to_

let test_vs_gc_compacts () =
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let h = Hsit.create nvm ~capacity:256 in
  let vs =
    make_vs ~size:(10 * 16 * 1024) ~chunk_size:(16 * 1024) ~gc_watermark:0.5 e
  in
  Value_storage.start_gc vs ~relocate:(relocate_in h);
  let ids = ref [||] in
  Engine.spawn e (fun () ->
      ids := fill_with_garbage h vs;
      Value_storage.poke_gc vs);
  ignore (Engine.run e);
  (* GC should have consolidated the 6 surviving values. *)
  Alcotest.(check bool) "gc ran" true (Value_storage.gc_runs vs > 0);
  Alcotest.(check bool) "chunks were freed" true (Value_storage.free_chunks vs >= 4);
  let ok = ref true in
  Engine.spawn e (fun () ->
      for c = 0 to 7 do
        let i = c * 4 in
        match Hsit.read_primary h !ids.(i) with
        | Location.In_vs { gen; chunk; slot; _ } -> (
            match Value_storage.read_slot_sync vs ~gen ~chunk ~slot with
            | Some data -> if not (Bytes.equal data (value ~size:2000 i)) then ok := false
            | None -> ok := false)
        | _ -> ok := false
      done);
  ignore (Engine.run e);
  Alcotest.(check bool) "survivors intact after GC" true !ok

(* [install] marks valid only the slots whose HSIT CAS it wins, reports
   exactly those to [moved], writes into the given chunk when asked, and
   seals the chunk so GC may take it. *)
let test_vs_install () =
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let h = Hsit.create nvm ~capacity:256 in
  (* Four chunks: GC wakes once fewer than two are free. *)
  let vs = make_vs ~size:(4 * 16 * 1024) e in
  Value_storage.start_gc vs ~relocate:(relocate_in h);
  let from_of id = Location.In_pwb { thread = 0; voff = id * 64 } in
  (* Installs two fresh entries, accepting slot 0 and failing slot 1's
     CAS; returns the won entry and the chunk written. *)
  let install ?chunk () =
    let won = Hsit.alloc h and lost = Hsit.alloc h in
    List.iter (fun id -> Hsit.write_primary h id (from_of id)) [ won; lost ];
    let homes = ref [] and moved = ref [] in
    let m = Value_storage.moves () in
    List.iter
      (fun id ->
        Value_storage.add_move m ~id ~value:(value id)
          ~from_:(Location.encode (from_of id) ~dirty:false))
      [ won; lost ];
    Value_storage.install ?chunk vs m ~pos:0 ~len:2
      ~repoint:(fun ~hsit_id ~from_ ~to_ ->
        homes := Location.decode to_ :: !homes;
        hsit_id = won && relocate_in h ~hsit_id ~from_ ~to_)
      ~moved:(fun from_ -> moved := Location.decode from_ :: !moved);
    match List.rev !homes with
    | [ (Location.In_vs { gen; chunk; slot = 0; _ } as home);
        Location.In_vs { gen = gen1; chunk = chunk1; slot = 1; _ } ]
      when gen1 = gen && chunk1 = chunk ->
        Alcotest.(check bool) "won slot valid" true
          (Value_storage.is_valid vs ~gen ~chunk ~slot:0);
        Alcotest.(check bool) "lost slot invalid" false
          (Value_storage.is_valid vs ~gen ~chunk ~slot:1);
        Alcotest.check loc_testable "won entry repointed" home
          (Hsit.read_primary h won);
        Alcotest.check loc_testable "lost entry untouched" (from_of lost)
          (Hsit.read_primary h lost);
        (match !moved with
        | [ from_ ] -> Alcotest.check loc_testable "moved from" (from_of won) from_
        | l ->
            Alcotest.failf "moved reported %d slots, want 1" (List.length l));
        (won, chunk)
    | _ -> Alcotest.fail "install must offer slots 0 and 1 of one chunk"
  in
  let survivors = ref [] in
  Engine.spawn e (fun () ->
      let first = install () in
      let given, _, done_ = Value_storage.write_chunk vs [ (99, value 99) ] in
      Io_uring.await done_;
      let ((_, chunk) as second) = install ~chunk:given () in
      Alcotest.(check int) "writes the given chunk" given chunk;
      survivors := [ first; second ];
      (* A third chunk leaves one free and wakes GC, which only ever
         takes sealed chunks. *)
      let _, _, done_ = Value_storage.write_chunk vs [ (98, value 98) ] in
      Io_uring.await done_);
  ignore (Engine.run ~until:1.0 e);
  Alcotest.(check int) "gc ran" 1 (Value_storage.gc_runs vs);
  Engine.spawn e (fun () ->
      List.iter
        (fun (id, chunk) ->
          match Hsit.read_primary h id with
          | Location.In_vs { chunk = now; _ } ->
              Alcotest.(check bool) "sealed chunk compacted" true (now <> chunk)
          | loc -> Alcotest.failf "lost its home: %a" Location.pp loc)
        !survivors);
  ignore (Engine.run e)

let test_vs_run_entry_coalesces () =
  in_sim (fun e ->
      let vs = make_vs e in
      let values = List.init 6 (fun i -> (i, value ~size:500 i)) in
      let chunk, gen, done_ = Value_storage.write_chunk vs values in
      Io_uring.await done_;
      Value_storage.seal vs ~chunk;
      (* Bindings 0..5 name slots 5..0: the run covers them all at once. *)
      let words =
        Array.init 6 (fun i ->
            Location.vs_word ~vs:(Value_storage.id vs) ~gen ~chunk ~slot:(5 - i))
      in
      let got = Array.make 6 Bytes.empty in
      let k =
        Value_storage.read_run vs ~gen ~chunk ~words ~values:got
          ~order:(Array.init 6 Fun.id) ~pos:0 ~len:6
      in
      if k < 0 then Alcotest.fail "expected a read";
      let io = Value_storage.read_request vs k in
      (* Five 528-byte records, then the last one's header and payload,
         rounded up to 512-byte sectors. *)
      Alcotest.(check int) "one IO over the run"
        (Prism_sim.Bits.round_up ((5 * 528) + 16 + 500) 512)
        (Io_uring.size io);
      Io_uring.submit_batch (Value_storage.uring vs) [| io |] 1;
      Io_uring.await io;
      Value_storage.release_read vs k;
      Array.iteri
        (fun i data ->
          Alcotest.check bytes_eq "payload" (value ~size:500 (5 - i)) data)
        got)

let test_vs_recover_rebuilds () =
  in_sim (fun e ->
      let vs = make_vs e in
      let values = List.init 3 (fun i -> (i + 10, value ~size:300 i)) in
      let chunk, gen, done_ = Value_storage.write_chunk vs values in
      Io_uring.await done_;
      Value_storage.seal vs ~chunk;
      ignore gen;
      (* Couple only slot 1. *)
      Value_storage.recover vs ~couple:(fun ~hsit_id loc ->
          hsit_id = 11
          &&
          match loc with
          | Location.In_vs { slot; _ } -> slot = 1
          | _ -> false);
      Alcotest.(check int) "one live" 1 (Value_storage.live_slots vs ~chunk);
      Alcotest.(check bool) "valid slot" true
        (Value_storage.is_valid vs ~gen:0 ~chunk ~slot:1);
      match Value_storage.read_slot_sync vs ~gen:0 ~chunk ~slot:1 with
      | Some data -> Alcotest.check bytes_eq "data" (value ~size:300 1) data
      | None -> Alcotest.fail "unreadable")

(* Random write / validity / seal / GC / recover sequences: after every
   step each chunk's incrementally kept live bytes (GC's victim key) must
   equal a walk over its valid slots. GC runs as it does in the store, in
   the background whenever free chunks run low, so its passes interleave
   with the writes and release their victims. *)
(* [pick_victims] against the sort it replaced: every sealed chunk as
   (live padded bytes, index), sorted, then the shortest prefix that nets
   a freed chunk and fits the free chunks. Random chunk states: up to
   all-but-one of 4..24 chunks written, each with 1..6 values of sizes
   drawn from a few (so live counts tie), random validity, sealed or left
   open. *)
let prop_pick_victims_matches_sort =
  let chunk_gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 6)
           (pair (oneofl [ 16; 100; 1000; 2000 ]) bool))
        bool unit)
  in
  qcase ~count:200 "victim pick matches sort-then-take"
    QCheck.(make Gen.(pair (int_range 4 24) (list_size (int_bound 23) chunk_gen)))
    (fun (nchunks, chunks) ->
      let chunk_size = 16 * 1024 in
      let chunks = List.filteri (fun i _ -> i < nchunks - 1) chunks in
      in_sim (fun e ->
          let vs = make_vs ~size:(nchunks * chunk_size) ~chunk_size e in
          let sealed =
            List.filter_map
              (fun (values, seal, ()) ->
                let chunk, gen, done_ =
                  Value_storage.write_chunk vs
                    (List.mapi (fun i (len, _) -> (i, Bytes.make len 'v')) values)
                in
                Io_uring.await done_;
                let live = ref 0 in
                List.iteri
                  (fun slot (len, valid) ->
                    if valid then begin
                      Value_storage.set_valid vs ~gen ~chunk ~slot true;
                      live := !live + 16 + Prism_sim.Bits.round_up len 16
                    end)
                  values;
                if seal then begin
                  Value_storage.seal vs ~chunk;
                  Some (!live, chunk)
                end
                else None)
              chunks
          in
          let budget = chunk_size - 32 in
          let nfree = Value_storage.free_chunks vs in
          let rec take acc bytes n = function
            | [] -> []
            | (live, c) :: rest ->
                let bytes = bytes + live and n = n + 1 in
                let n_out =
                  if bytes = 0 then 0
                  else Prism_sim.Bits.ceil_div (max 1 bytes) budget
                in
                if n >= 2 && n_out < n && n_out <= nfree then List.rev (c :: acc)
                else take (c :: acc) bytes n rest
          in
          Value_storage.pick_victims vs = take [] 0 0 (List.sort compare sealed)))

let prop_vs_live_bytes =
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map
              (fun sizes -> `Write sizes)
              (list_size (int_range 1 6) (int_range 1 600)) );
          (6, map3 (fun i slot v -> `Set (i, slot, v)) nat nat bool);
          (2, map (fun i -> `Seal i) nat);
          (1, return `Gc);
          (1, map (fun m -> `Recover m) (int_range 1 4));
        ])
  in
  qcase ~count:100 "live bytes follow validity"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 80) op))
    (fun ops ->
      let e = Engine.create () in
      let vs =
        make_vs ~size:(16 * 4096) ~chunk_size:4096 ~gc_watermark:0.5 e
      in
      Value_storage.start_gc vs ~relocate:(fun ~hsit_id:_ ~from_:_ ~to_:_ ->
          true);
      let written = ref [||] in
      let next_id = ref 0 in
      let nth i = !written.(i mod Array.length !written) in
      let completed = ref false in
      Engine.spawn e (fun () ->
          List.iter
            (fun op ->
              (match op with
              | `Write sizes ->
                  (* Leave room so a write never waits on GC forever. *)
                  if Value_storage.free_chunks vs > 3 then begin
                    let values =
                      List.map
                        (fun len ->
                          incr next_id;
                          (!next_id, Bytes.make len 'v'))
                        sizes
                    in
                    let chunk, gen, done_ =
                      Value_storage.write_chunk vs values
                    in
                    Io_uring.await done_;
                    written :=
                      Array.append !written
                        [| (chunk, gen, List.length values) |]
                  end
              | `Set (i, slot, v) ->
                  if !written <> [||] then begin
                    let chunk, gen, n = nth i in
                    Value_storage.set_valid vs ~gen ~chunk ~slot:(slot mod n) v
                  end
              | `Seal i ->
                  if !written <> [||] then begin
                    let chunk, _, _ = nth i in
                    Value_storage.seal vs ~chunk
                  end
              | `Gc ->
                  Value_storage.poke_gc vs;
                  Engine.delay 1e-2
              | `Recover m ->
                  (* Let any GC pass finish first, as a crash would. *)
                  Engine.delay 1e-2;
                  Value_storage.recover vs ~couple:(fun ~hsit_id _ ->
                      hsit_id mod m = 0));
              Value_storage.check_live vs)
            ops;
          completed := true);
      ignore (Engine.run e);
      !completed)

(* ---- Reclaimer ---- *)

let with_reclaimer ?(pwb_size = 2048) ?(async = true) f =
  let e = Engine.create () in
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let hsit = Hsit.create nvm ~capacity:1024 in
  let pwb = Pwb.create nvm ~thread:0 ~size:pwb_size in
  let vs =
    Value_storage.create e ~id:0 ~size:(32 * 16 * 1024)
      ~chunk_size:(16 * 1024) ~queue_depth:16 ~spec:Spec.samsung_980_pro
      ~cost:Cost.default ~gc_watermark:0.75
  in
  let reclaimer =
    Reclaimer.create e ~pwb ~hsit ~storages:[| vs |] ~rng:(Rng.create 13L)
      ~watermark:0.5
  in
  if async then Reclaimer.start reclaimer;
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e hsit pwb vs reclaimer));
  ignore (Engine.run e);
  match !result with Some r -> r | None -> Alcotest.fail "did not complete"

let put_record hsit pwb i data =
  let id = Hsit.alloc hsit in
  let voff = Pwb.append pwb ~hsit_id:id ~value:data in
  Hsit.write_primary hsit id (Location.In_pwb { thread = 0; voff });
  ignore i;
  id

let test_reclaimer_migrates_live_values () =
  with_reclaimer (fun e hsit pwb vs reclaimer ->
      let ids =
        List.init 12 (fun i -> (i, put_record hsit pwb i (value ~size:100 i)))
      in
      Reclaimer.reclaim_now reclaimer;
      Engine.delay 1e-3;
      ignore e;
      Alcotest.(check bool) "values migrated" true
        (Reclaimer.reclaimed_values reclaimer = 12);
      Alcotest.(check int) "pwb drained" 0 (Pwb.used pwb);
      (* Every HSIT entry now points into the Value Storage, and the data
         reads back. *)
      List.iter
        (fun (i, id) ->
          match Hsit.read_primary hsit id with
          | Location.In_vs { gen; chunk; slot; _ } -> (
              Alcotest.(check bool) "slot valid" true
                (Value_storage.is_valid vs ~gen ~chunk ~slot);
              match Value_storage.read_slot_sync vs ~gen ~chunk ~slot with
              | Some data ->
                  Alcotest.check bytes_eq "data" (value ~size:100 i) data
              | None -> Alcotest.fail "unreadable after migration")
          | _ -> Alcotest.fail "expected VS location")
        ids)

let test_reclaimer_skips_superseded () =
  with_reclaimer (fun _ hsit pwb _ reclaimer ->
      let id = Hsit.alloc hsit in
      (* Three versions of the same key; only the last is live. *)
      for v = 0 to 2 do
        let voff = Pwb.append pwb ~hsit_id:id ~value:(value ~size:100 v) in
        Hsit.write_primary hsit id (Location.In_pwb { thread = 0; voff })
      done;
      Reclaimer.reclaim_now reclaimer;
      Alcotest.(check int) "one migrated" 1
        (Reclaimer.reclaimed_values reclaimer);
      Alcotest.(check int) "two skipped dead" 2
        (Reclaimer.skipped_dead reclaimer))

let test_reclaimer_trigger_on_watermark () =
  with_reclaimer ~pwb_size:2048 (fun e hsit pwb _ reclaimer ->
      (* Fill past 50%: the trigger must fire and free space without an
         explicit reclaim_now. *)
      for i = 0 to 9 do
        ignore (put_record hsit pwb i (value ~size:100 i));
        Reclaimer.maybe_trigger reclaimer
      done;
      Engine.delay 1e-2;
      ignore e;
      Alcotest.(check bool) "reclaimed in background" true
        (Reclaimer.reclaimed_values reclaimer > 0);
      Alcotest.(check bool) "below watermark" true (Pwb.utilization pwb < 0.5))

let test_reclaimer_sync_mode_inline () =
  with_reclaimer ~async:false (fun _ hsit pwb _ reclaimer ->
      for i = 0 to 9 do
        ignore (put_record hsit pwb i (value ~size:100 i));
        Reclaimer.maybe_trigger reclaimer
      done;
      (* In sync mode maybe_trigger runs the pass inline. *)
      Alcotest.(check bool) "reclaimed inline" true
        (Reclaimer.reclaimed_values reclaimer > 0))

(* Background passes that overlap in virtual time: each reclaimer and
   each Value Storage's GC records its spans on its own tid, so one pass
   ending can neither close another's frame early nor count it as a
   child. Two reclaim passes of different lengths start at one instant
   and each must keep its full duration; two GC processes woken at one
   instant must record on distinct tids. *)
let test_background_spans_own_tids () =
  let e = Engine.create () in
  let spans = Engine.spans e in
  Span.set_enabled spans true;
  Span.set_keep_events spans true;
  let nvm = Nvm.create e ~spec:Spec.optane_dcpmm ~size:(1024 * 1024) () in
  let hsit = Hsit.create nvm ~capacity:1024 in
  let vs = make_vs ~size:(32 * 16 * 1024) e in
  let reclaimers =
    Array.init 2 (fun thread ->
        let pwb = Pwb.create nvm ~thread ~size:4096 in
        ( pwb,
          Reclaimer.create e ~pwb ~hsit ~storages:[| vs |]
            ~rng:(Rng.create 13L) ~watermark:0.9 ))
  in
  let gcs =
    Array.init 2 (fun id ->
        Value_storage.create e ~id:(id + 1) ~size:(10 * 16 * 1024)
          ~chunk_size:(16 * 1024) ~queue_depth:16 ~spec:Spec.samsung_980_pro
          ~cost:Cost.default ~gc_watermark:0.5)
  in
  let durations = Array.make 2 0.0 in
  Engine.spawn e (fun () ->
      Array.iteri
        (fun thread (pwb, _) ->
          for i = 1 to 4 + (8 * thread) do
            let id = Hsit.alloc hsit in
            let voff = Pwb.append pwb ~hsit_id:id ~value:(value ~size:100 i) in
            Hsit.write_primary hsit id (Location.In_pwb { thread; voff })
          done)
        reclaimers;
      Array.iter (fun vs -> ignore (fill_with_garbage hsit vs)) gcs;
      Array.iteri
        (fun i (_, r) ->
          Engine.spawn e (fun () ->
              let t0 = Engine.now e in
              Reclaimer.reclaim_now r;
              durations.(i) <- Engine.now e -. t0))
        reclaimers;
      Array.iter
        (fun vs ->
          Value_storage.start_gc vs ~relocate:(relocate_in hsit);
          Value_storage.poke_gc vs)
        gcs);
  ignore (Engine.run e);
  Alcotest.(check bool) "passes differ in length" true
    (durations.(0) > 0.0 && durations.(0) < durations.(1));
  (match List.find_opt (fun (n, _, _, _) -> n = "reclaimer.pass") (Span.totals spans) with
  | Some (_, count, total, self) ->
      Alcotest.(check int) "two passes" 2 count;
      check_approx "full durations" (durations.(0) +. durations.(1)) total;
      check_approx "no pass nests in the other" total self
  | None -> Alcotest.fail "no reclaimer.pass span");
  (* Chrome events read [..."name":N,"ph":"X","pid":0,"tid":T,...]. *)
  let tids_of name =
    String.split_on_char '{' (Span.to_chrome_json spans)
    |> List.filter_map (fun ev ->
           try
             Scanf.sscanf ev "\"name\":\"%s@\",\"ph\":\"X\",\"pid\":0,\"tid\":%d"
               (fun n tid -> if n = name then Some tid else None)
           with Scanf.Scan_failure _ | End_of_file -> None)
    |> List.sort_uniq compare
  in
  let gc_tids = tids_of "vs.gc" in
  let pass_tids = tids_of "reclaimer.pass" in
  Alcotest.(check int) "one tid per GC process" 2 (List.length gc_tids);
  Alcotest.(check int) "one tid per reclaimer" 2 (List.length pass_tids);
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare (gc_tids @ pass_tids)));
  Alcotest.(check bool) "none on the default tid" false
    (List.mem 0 (gc_tids @ pass_tids))

(* ---- Tcq ---- *)

let make_tcq ?(limit = 8) e =
  let d = Model.create e Spec.samsung_980_pro in
  let u = Io_uring.create e d ~queue_depth:64 ~cost:Cost.default in
  Tcq.create u ~limit ~cost:Cost.default

let read_entry_stub fired =
  { Io_uring.dir = Model.Read; size = 512; action = (fun () -> incr fired) }

let test_tcq_single_reader () =
  in_sim (fun e ->
      let tcq = make_tcq e in
      let fired = ref 0 in
      Tcq.read tcq (read_entry_stub fired);
      Alcotest.(check int) "completed" 1 !fired;
      Alcotest.(check int) "one batch" 1 (Tcq.batches tcq);
      Alcotest.(check int) "one request" 1 (Tcq.requests tcq))

let test_tcq_combines_concurrent_readers () =
  let e = Engine.create () in
  let tcq = make_tcq ~limit:64 e in
  let fired = ref 0 in
  let n = 16 in
  for _ = 1 to n do
    Engine.spawn e (fun () -> Tcq.read tcq (read_entry_stub fired))
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "all served" n !fired;
  Alcotest.(check int) "requests" n (Tcq.requests tcq);
  (* Concurrency means far fewer batches than requests. *)
  Alcotest.(check bool) "combined" true (Tcq.batches tcq < n / 2)

let test_tcq_respects_limit () =
  let e = Engine.create () in
  let tcq = make_tcq ~limit:4 e in
  let fired = ref 0 in
  for _ = 1 to 16 do
    Engine.spawn e (fun () -> Tcq.read tcq (read_entry_stub fired))
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "all served" 16 !fired;
  Alcotest.(check bool) "at least req/limit batches" true
    (Tcq.batches tcq >= 4)

let test_tcq_read_many () =
  in_sim (fun e ->
      let tcq = make_tcq ~limit:64 e in
      let fired = ref 0 in
      Tcq.read_many tcq (List.init 10 (fun _ -> read_entry_stub fired));
      Alcotest.(check int) "all completed" 10 !fired)

let test_tcq_sequential_readers_small_batches () =
  (* With no concurrency, each read is its own batch: low latency mode. *)
  in_sim (fun e ->
      let tcq = make_tcq ~limit:64 e in
      let fired = ref 0 in
      for _ = 1 to 5 do
        Tcq.read tcq (read_entry_stub fired)
      done;
      Alcotest.(check int) "five batches" 5 (Tcq.batches tcq))

(* ---- Ta_batcher ---- *)

let make_ta ?(limit = 8) ?(timeout = 100e-6) e =
  let d = Model.create e Spec.samsung_980_pro in
  let u = Io_uring.create e d ~queue_depth:64 ~cost:Cost.default in
  let ta = Ta_batcher.create e u ~limit ~timeout ~cost:Cost.default in
  Ta_batcher.start ta;
  ta

let test_ta_waits_for_timeout () =
  let e = Engine.create () in
  let ta = make_ta ~timeout:100e-6 e in
  let fired = ref 0 in
  let finished_at = ref nan in
  Engine.spawn e (fun () ->
      Ta_batcher.read ta (read_entry_stub fired);
      finished_at := Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check int) "completed" 1 !fired;
  (* Single read must have waited out the 100us timeout before submit. *)
  Alcotest.(check bool) "timeout added" true (!finished_at >= 100e-6)

let test_ta_full_batch_submits_early () =
  let e = Engine.create () in
  let ta = make_ta ~limit:4 ~timeout:1.0 e in
  let fired = ref 0 in
  let finished = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Ta_batcher.read ta (read_entry_stub fired);
        incr finished)
  done;
  let t = Engine.run ~until:0.5 e in
  ignore t;
  Alcotest.(check int) "all done well before the 1s timeout" 4 !finished

let test_ta_batches_accumulate () =
  let e = Engine.create () in
  let ta = make_ta ~limit:64 ~timeout:50e-6 e in
  let fired = ref 0 in
  for _ = 1 to 10 do
    Engine.spawn e (fun () -> Ta_batcher.read ta (read_entry_stub fired))
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "served" 10 !fired;
  Alcotest.(check bool) "few batches" true (Ta_batcher.batches ta <= 2)

(* The combining paths' schedule, pinned: a TCQ batch (a leader, three
   followers and a [read_many]) on a two-slot ring, so the leader parks
   on the ring mid-batch and some IOs finish before their hand-off, and
   a TA batch of three readers filling a limit of two, so a full batch
   and a timed-out straggler both dispatch. The trace lists each
   reader's completion time in completion order, then the events
   executed and the tie-break decisions taken. *)
let combining_trace tie =
  let e = Engine.create () in
  Engine.set_tie_break e tie;
  let uring qd =
    Io_uring.create e
      (Model.create e Spec.samsung_980_pro)
      ~queue_depth:qd ~cost:Cost.default
  in
  let tcq = Tcq.create (uring 2) ~limit:8 ~cost:Cost.default in
  let ta = Ta_batcher.create e (uring 64) ~limit:2 ~cost:Cost.default in
  Ta_batcher.start ta;
  let log = Buffer.create 256 in
  let entry size = { Io_uring.dir = Model.Read; size; action = ignore } in
  let reader name read =
    Engine.spawn e (fun () ->
        read ();
        Printf.bprintf log "%s@%h " name (Engine.now e))
  in
  List.iteri
    (fun i size ->
      reader (Printf.sprintf "tcq%d" i) (fun () -> Tcq.read tcq (entry size)))
    [ 512; 4096; 1024; 8192 ];
  reader "many" (fun () ->
      Tcq.read_many tcq [ entry 512; entry 2048; entry 512 ]);
  List.iteri
    (fun i size ->
      reader (Printf.sprintf "ta%d" i) (fun () -> Ta_batcher.read ta (entry size)))
    [ 4096; 512; 1024 ];
  ignore (Engine.run e);
  Printf.bprintf log "events=%d choices=%s" (Engine.events_executed e)
    (String.concat ","
       (Array.to_list (Array.map string_of_int (Engine.recorded_choices e))));
  Buffer.contents log

let test_combining_schedule_pinned () =
  Alcotest.(check string) "fifo"
    "ta0@0x1.b0faacded0d3ep-15 ta1@0x1.b197bf94d237p-15 \
     ta2@0x1.3eed558e757ep-13 tcq0@0x1.43d8fc9c0e9dcp-13 \
     tcq1@0x1.43d8fc9c0e9dcp-13 tcq2@0x1.43d8fc9c0e9dcp-13 \
     tcq3@0x1.43d8fc9c0e9dcp-13 many@0x1.acdbccf600033p-13 events=69 \
     choices="
    (combining_trace Engine.Fifo);
  Alcotest.(check string) "seeded"
    "ta2@0x1.ad4c3c9ac8816p-15 ta1@0x1.ade94f50c9e47p-15 \
     ta0@0x1.3fd8f19f7792bp-13 tcq3@0x1.462602c693d14p-13 \
     tcq0@0x1.462602c693d14p-13 tcq2@0x1.462602c693d14p-13 \
     tcq1@0x1.462602c693d14p-13 many@0x1.af28d3208536bp-13 events=69 \
     choices=8,4,2,1,0,1,0,0,0,1,1,0,0,1,0,0,1,1,1,0,1,1,1,1,0,1,0,1,1,1,0,0,2,0,1,1,0"
    (combining_trace (Engine.Seeded 7L))

let () =
  Alcotest.run "core-units"
    [
      ( "location",
        [
          case "roundtrips" test_location_roundtrips;
          case "out of range" test_location_out_of_range;
          case "set dirty" test_location_set_dirty;
          case "same_slot" test_location_same_slot_ignores_gen;
          prop_location_roundtrip;
          prop_location_matches_int64_codec;
        ] );
      ( "hsit",
        [
          case "alloc/free" test_hsit_alloc_free;
          case "full" test_hsit_full;
          case "write/read" test_hsit_write_read_primary;
          case "cas semantics" test_hsit_update_cas_semantics;
          case "durable" test_hsit_durable_after_write;
          case "cas race regression" test_hsit_cas_race_lost_update;
          case "svc pointer" test_hsit_svc_pointer;
          case "svc not persisted" test_hsit_svc_not_persisted;
          case "flush on read" test_hsit_flush_on_read;
          case "rebuild free list" test_hsit_rebuild_free_list;
        ] );
      ( "pwb",
        [
          case "append/read" test_pwb_append_read;
          case "monotonic voffs" test_pwb_monotonic_voffs;
          case "utilization" test_pwb_utilization_and_advance;
          case "wraparound" test_pwb_wraparound;
          case "blocks when full" test_pwb_blocks_when_full_until_advance;
          case "fold skips pads" test_pwb_fold_records_skips_pads;
          case "durable coupling" test_pwb_read_durable_coupling;
          case "oversized rejected" test_pwb_too_large_value_rejected;
          prop_pwb_ring_model;
        ] );
      ( "epoch",
        [
          case "basic" test_epoch_basic_reclamation;
          case "pinned blocks" test_epoch_pinned_blocks_advance;
          case "drain" test_epoch_drain;
          case "reset discards" test_epoch_reset_discards;
          case "double pin" test_epoch_double_pin_rejected;
          case "exception safe" test_epoch_with_pinned_exception_safe;
        ] );
      ( "value-storage",
        [
          case "write/read chunk" test_vs_write_read_chunk;
          case "validity bitmap" test_vs_validity_bitmap;
          case "stale gen" test_vs_stale_gen_rejected;
          case "exhaustion blocks" test_vs_chunk_exhaustion_blocks;
          case "gc compacts" test_vs_gc_compacts;
          case "install" test_vs_install;
          case "run entry coalesces" test_vs_run_entry_coalesces;
          case "recover" test_vs_recover_rebuilds;
          prop_vs_live_bytes;
          prop_pick_victims_matches_sort;
        ] );
      ( "reclaimer",
        [
          case "migrates live values" test_reclaimer_migrates_live_values;
          case "skips superseded" test_reclaimer_skips_superseded;
          case "watermark trigger" test_reclaimer_trigger_on_watermark;
          case "sync mode" test_reclaimer_sync_mode_inline;
          case "overlapping passes keep their spans"
            test_background_spans_own_tids;
        ] );
      ( "tcq",
        [
          case "single reader" test_tcq_single_reader;
          case "combines readers" test_tcq_combines_concurrent_readers;
          case "limit" test_tcq_respects_limit;
          case "read_many" test_tcq_read_many;
          case "sequential small batches" test_tcq_sequential_readers_small_batches;
        ] );
      ( "ta",
        [
          case "timeout" test_ta_waits_for_timeout;
          case "full batch early" test_ta_full_batch_submits_early;
          case "accumulates" test_ta_batches_accumulate;
          case "combining schedule pinned" test_combining_schedule_pinned;
        ] );
    ]
