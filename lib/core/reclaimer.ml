open Prism_sim

type t = {
  engine : Engine.t;
  pwb : Pwb.t;
  hsit : Hsit.t;
  storages : Value_storage.t array;
  rng : Rng.t;
  watermark : float;
  wakeup : unit Sync.Mailbox.t;
  mutable running : bool;
  mutable in_pass : bool;
  reclaimed : Metric.Counter.t;
  dead : Metric.Counter.t;
  span_tid : int; (* this reclaimer's own frame stack for its passes *)
  batch : Value_storage.moves; (* the pass's live records for one chunk *)
}

(* The header [Pwb.next_record] found, read back before the pass can be
   suspended again, so one pair of cells serves every reclaimer. *)
let found = [| 0; 0 |]

let create ?(watermark = 0.5) engine ~pwb ~hsit ~storages ~rng =
  if Array.length storages = 0 then invalid_arg "Reclaimer.create: no storages";
  {
    engine;
    pwb;
    hsit;
    storages;
    rng;
    watermark;
    wakeup = Sync.Mailbox.create ();
    running = false;
    in_pass = false;
    reclaimed = Metric.Counter.create ();
    dead = Metric.Counter.create ();
    span_tid = Span.fresh_tid (Engine.spans engine);
    batch = Value_storage.moves ();
  }

let over_watermark t = Pwb.utilization t.pwb >= t.watermark

let in_pass t = t.in_pass

let reclaimed_values t = Metric.Counter.value t.reclaimed

let skipped_dead t = Metric.Counter.value t.dead

let repoint t ~hsit_id ~from_ ~to_ =
  Hsit.update_primary_word t.hsit hsit_id ~expect:from_ to_

(* Write the batch of live values to a chunk and repoint their HSIT
   entries (values superseded meanwhile stay garbage in the chunk). *)
let flush_batch t =
  let batch = t.batch in
  if batch.Value_storage.count > 0 then begin
    let vs = Value_storage.pick t.rng t.storages in
    Value_storage.install vs batch ~pos:0 ~len:batch.Value_storage.count
      ~repoint:(repoint t)
      ~moved:(fun _ -> Metric.Counter.incr t.reclaimed);
    Value_storage.clear_moves batch;
    Value_storage.poke_gc vs
  end

let reclaim_now t =
  if t.in_pass then ()
  else begin
    t.in_pass <- true;
    Engine.with_span t.engine ~tid:t.span_tid "reclaimer.pass" @@ fun () ->
    Fun.protect
      ~finally:(fun () -> t.in_pass <- false)
      (fun () ->
        let target_tail = Pwb.tail t.pwb in
        let budget =
          Value_storage.chunk_size t.storages.(0) - (4 * 16)
        in
        let rec scan pos batch_bytes =
          let voff = Pwb.next_record t.pwb ~voff:pos found in
          if voff >= 0 && voff < target_tail then begin
            let hsit_id = found.(0) and len = found.(1) in
            let next = voff + Pwb.record_extent ~len in
            let here = Location.pwb_word ~thread:(Pwb.thread t.pwb) ~voff in
            if Hsit.read_primary_word t.hsit hsit_id <> here then begin
              (* Superseded or deleted: skip without any SSD write. *)
              Metric.Counter.incr t.dead;
              scan next batch_bytes
            end
            else begin
              let record_bytes = Pwb.record_extent ~len in
              if batch_bytes + record_bytes > budget then begin
                flush_batch t;
                (* Space up to (and excluding) this record is migrated or
                   dead; release it to unblock appenders. *)
                Pwb.advance_head t.pwb ~to_:voff;
                scan pos 0
              end
              else begin
                let payload = Pwb.read t.pwb ~voff ~hsit_id in
                Value_storage.add_move t.batch ~id:hsit_id ~value:payload
                  ~from_:here;
                scan next (batch_bytes + record_bytes)
              end
            end
          end
          else begin
            flush_batch t;
            Pwb.advance_head t.pwb ~to_:(min target_tail (Pwb.tail t.pwb))
          end
        in
        scan (Pwb.head t.pwb) 0)
  end

let maybe_trigger t =
  if over_watermark t then
    if t.running then begin
      if Sync.Mailbox.is_empty t.wakeup && not t.in_pass then
        Sync.Mailbox.send t.wakeup ()
    end
    else reclaim_now t

let start t =
  if t.running then invalid_arg "Reclaimer.start: already running";
  t.running <- true;
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        Sync.Mailbox.recv t.wakeup;
        reclaim_now t;
        loop ()
      in
      loop ())
