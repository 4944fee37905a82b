open Prism_sim

(* Everything the migration step needs, shared by all reclaimers of one
   store. Present only under hotness placement: with [tiering = None]
   every pass is exactly the pre-placement-layer code path. *)
type tiering = {
  tier : Nvm_tier.t;
  placement : Placement.t;
  promotions : Metric.Counter.t;
  demotions : Metric.Counter.t;
  migration_bytes : Metric.Counter.t;
}

(* Max promoted + demoted bytes per pass. *)
let migration_budget = 256 * 1024

type t = {
  engine : Engine.t;
  pwb : Pwb.t;
  hsit : Hsit.t;
  storages : Value_storage.t array;
  rng : Rng.t;
  watermark : float;
  tiering : tiering option;
  wakeup : unit Sync.Mailbox.t;
  mutable running : bool;
  mutable in_pass : bool;
  reclaimed : Metric.Counter.t;
  dead : Metric.Counter.t;
  span_tid : int; (* this reclaimer's own frame stack for its passes *)
}

let create ?tiering ?(watermark = 0.5) engine ~pwb ~hsit ~storages ~rng =
  if Array.length storages = 0 then invalid_arg "Reclaimer.create: no storages";
  {
    engine;
    pwb;
    hsit;
    storages;
    rng;
    watermark;
    tiering;
    wakeup = Sync.Mailbox.create ();
    running = false;
    in_pass = false;
    reclaimed = Metric.Counter.create ();
    dead = Metric.Counter.create ();
    span_tid = Span.fresh_tid (Engine.spans engine);
  }

let over_watermark t = Pwb.utilization t.pwb >= t.watermark

let in_pass t = t.in_pass

let reclaimed_values t = Metric.Counter.value t.reclaimed

let skipped_dead t = Metric.Counter.value t.dead

let repoint t ~hsit_id ~from_ ~to_ =
  Hsit.update_primary t.hsit hsit_id ~expect:from_ to_

(* Write one batch of live values to a chunk and repoint their HSIT
   entries (values superseded meanwhile stay garbage in the chunk). *)
let flush_batch t batch =
  match List.rev batch with
  | [] -> ()
  | values ->
      let vs = Value_storage.pick t.rng t.storages in
      Value_storage.install vs values ~repoint:(repoint t)
        ~moved:(fun ~from_:_ ~value:_ -> Metric.Counter.incr t.reclaimed);
      Value_storage.poke_gc vs

(* Hot value found during the ring scan: copy it straight into the NVM
   tier instead of batching it toward SSD. Returns [true] when the record
   is fully handled (promoted, or superseded while we copied). [false]
   falls back to the SSD batch (cold, or the tier is full). *)
let try_promote_fresh t tg ~hsit_id ~payload ~from_ =
  match Placement.fresh_tier tg.placement ~hsit_id with
  | `Ssd -> false
  | `Nvm -> (
      match Nvm_tier.append tg.tier ~hsit_id ~value:payload with
      | None -> false
      | Some noff ->
          if
            Hsit.update_primary t.hsit hsit_id ~expect:from_
              (Location.In_nvm { noff })
          then begin
            Metric.Counter.incr t.reclaimed;
            Metric.Counter.incr tg.promotions
          end
          else
            (* Superseded while the copy persisted: the tier record is
               unreachable garbage; drop it. *)
            Nvm_tier.free tg.tier ~noff;
          true)

(* Demote cold tier residents: one CLOCK decay sweep over the residents
   (offset order, so the hand position is deterministic), then rewrite the
   cold ones into one SSD chunk. The chunk write is billed to
   [migration_bytes] so WAF stays an application-write metric. *)
let demote_pass t tg budget =
  let residents = ref [] in
  Nvm_tier.iter tg.tier (fun ~hsit_id ~noff ~len ->
      residents := (noff, hsit_id, len) :: !residents);
  let cold =
    List.sort compare !residents
    |> List.filter (fun (_, hsit_id, _) -> Placement.decay tg.placement hsit_id)
  in
  let chunk_budget =
    Value_storage.chunk_size t.storages.(0) - (4 * 16)
  in
  let batch, _ =
    List.fold_left
      (fun (batch, bytes) (noff, hsit_id, len) ->
        let extent = Nvm_tier.record_extent ~len in
        if bytes + extent > min !budget chunk_budget then (batch, bytes)
        else
          match Nvm_tier.read tg.tier ~noff ~expect:hsit_id with
          | None -> (batch, bytes)
          | Some payload ->
              ( (hsit_id, payload, Location.In_nvm { noff }) :: batch,
                bytes + extent ))
      ([], 0) cold
  in
  match List.rev batch with
  | [] -> ()
  | values ->
      let vs = Value_storage.pick t.rng t.storages in
      Value_storage.install ~io_counter:tg.migration_bytes vs values
        ~repoint:(repoint t) ~moved:(fun ~from_ ~value ->
          (match from_ with
          | Location.In_nvm { noff } -> Nvm_tier.free tg.tier ~noff
          | Location.Nowhere | Location.In_pwb _ | Location.In_vs _ -> ());
          Metric.Counter.incr tg.demotions;
          budget := !budget - Nvm_tier.record_extent ~len:(Bytes.length value));
      Value_storage.poke_gc vs

(* Promote read-hot values the policy queued: copy them out of Value
   Storage into the tier and repoint. Stops at the budget or when the
   tier is full (demotions will make room by the next pass). *)
let promote_pass t tg budget =
  let rec drain () =
    if !budget > 0 then
      match Placement.next_promote tg.placement with
      | None -> ()
      | Some id -> (
          match Hsit.read_primary t.hsit id with
          | Location.In_vs { vs; gen; chunk; slot }
            when Placement.fresh_tier tg.placement ~hsit_id:id = `Nvm -> (
              match
                Value_storage.read_slot_sync t.storages.(vs) ~gen ~chunk ~slot
              with
              | None -> drain ()
              | Some value -> (
                  match Nvm_tier.append tg.tier ~hsit_id:id ~value with
                  | None -> () (* tier full: stop promoting this pass *)
                  | Some noff ->
                      let from_ = Location.In_vs { vs; gen; chunk; slot } in
                      if
                        Hsit.update_primary t.hsit id ~expect:from_
                          (Location.In_nvm { noff })
                      then begin
                        Value_storage.set_valid t.storages.(vs) ~gen ~chunk
                          ~slot false;
                        Metric.Counter.incr tg.promotions;
                        budget :=
                          !budget
                          - Nvm_tier.record_extent ~len:(Bytes.length value)
                      end
                      else Nvm_tier.free tg.tier ~noff;
                      drain ()))
          | _ -> drain ())
  in
  drain ()

let migrate t tg =
  let budget = ref migration_budget in
  demote_pass t tg budget;
  promote_pass t tg budget

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
        let rec scan pos batch batch_bytes =
          match Pwb.next_record t.pwb ~voff:pos with
          | Some (voff, hsit_id, len) when voff < target_tail ->
              let next = voff + Pwb.record_extent ~len in
              let here = Location.In_pwb { thread = Pwb.thread t.pwb; voff } in
              let live =
                Location.equal (Hsit.read_primary t.hsit hsit_id) here
              in
              if not live then begin
                (* Superseded or deleted: skip without any SSD write. *)
                Metric.Counter.incr t.dead;
                scan next batch batch_bytes
              end
              else begin
                let record_bytes = Pwb.record_extent ~len in
                if batch_bytes + record_bytes > budget then begin
                  flush_batch t batch;
                  (* Space up to (and excluding) this record is migrated or
                     dead; release it to unblock appenders. *)
                  Pwb.advance_head t.pwb ~to_:voff;
                  scan pos [] 0
                end
                else begin
                  let _, payload = Pwb.read t.pwb ~voff in
                  let promoted =
                    match t.tiering with
                    | None -> false
                    | Some tg ->
                        try_promote_fresh t tg ~hsit_id ~payload ~from_:here
                  in
                  if promoted then scan next batch batch_bytes
                  else
                    scan next
                      ((hsit_id, payload, here) :: batch)
                      (batch_bytes + record_bytes)
                end
              end
          | Some _ | None ->
              flush_batch t batch;
              Pwb.advance_head t.pwb ~to_:(min target_tail (Pwb.tail t.pwb))
        in
        scan (Pwb.head t.pwb) [] 0;
        match t.tiering with None -> () | Some tg -> migrate t tg);
    (* The migration step suspends on device IO long after the ring scan's
       final head advance, so appenders can refill the ring — and block in
       [Pwb.append] — while [in_pass] still suppresses their wakeups. Re-arm
       ourselves or they sleep forever. Tiering-only: the static pass ends
       right after its last head advance, so this re-check would be new
       behavior there. *)
    match t.tiering with
    | Some _
      when t.running
           && over_watermark t
           && Sync.Mailbox.is_empty t.wakeup ->
        Sync.Mailbox.send t.wakeup ()
    | _ -> ()
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
