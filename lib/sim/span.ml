(* Virtual-time spans with self-time attribution.

   A span is name x tid x [start, end) in virtual time. Spans only read
   the clock — they never schedule events — so tracing is inert with
   respect to the simulation schedule. Each simulated client thread is
   sequential, so spans nest properly within a tid even though processes
   interleave on the engine; a per-tid frame stack attributes each
   span's self time (duration minus enclosed children).

   Disabled by default: [begin_]/[end_] are then no-ops, cheap enough to
   leave the call sites in hot paths unconditionally. *)

type frame = {
  name : string;
  tid : int;
  start : float;
  mutable child : float; (* total duration of directly enclosed spans *)
}

type handle = frame option

type agg = {
  mutable count : int;
  mutable total : float;
  mutable self : float;
}

type t = {
  mutable enabled : bool;
  mutable keep_events : bool;
  stacks : (int, frame list ref) Hashtbl.t;
  totals : (string, agg) Hashtbl.t;
  mutable events_rev : (string * int * float * float) list;
      (* (name, tid, start, duration), newest first; only when
         [keep_events] *)
  mutable last_tid : int; (* the latest [fresh_tid]; kept across [reset] *)
}

let create () =
  {
    enabled = false;
    keep_events = false;
    stacks = Hashtbl.create 16;
    totals = Hashtbl.create 32;
    events_rev = [];
    last_tid = 0;
  }

let enabled t = t.enabled

let set_enabled t on = t.enabled <- on

let set_keep_events t on = t.keep_events <- on

let stack_of t tid =
  match Hashtbl.find_opt t.stacks tid with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add t.stacks tid s;
      s

let fresh_tid t =
  t.last_tid <- t.last_tid + 1;
  t.last_tid

let begin_ t ~name ~tid ~now : handle =
  if not t.enabled then None
  else begin
    let f = { name; tid; start = now; child = 0.0 } in
    let stack = stack_of t tid in
    stack := f :: !stack;
    Some f
  end

let agg_of t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> a
  | None ->
      let a = { count = 0; total = 0.0; self = 0.0 } in
      Hashtbl.add t.totals name a;
      a

let close t f ~now =
  let dur = now -. f.start in
  let a = agg_of t f.name in
  a.count <- a.count + 1;
  a.total <- a.total +. dur;
  a.self <- a.self +. (dur -. f.child);
  if t.keep_events then
    t.events_rev <- (f.name, f.tid, f.start, dur) :: t.events_rev;
  dur

let end_ t (h : handle) ~now =
  match h with
  | None -> ()
  | Some f -> (
      let stack = stack_of t f.tid in
      (* Pop to (and including) this frame; orphans above it — ends
         skipped by an exception unwinding past their [end_] — are closed
         at the same instant rather than leaked. *)
      let rec pop = function
        | [] -> []
        | g :: rest when g == f ->
            let dur = close t f ~now in
            (match rest with
            | parent :: _ -> parent.child <- parent.child +. dur
            | [] -> ());
            rest
        | g :: rest ->
            ignore (close t g ~now);
            pop rest
      in
      match !stack with
      | [] -> () (* already closed: double end_ is a no-op *)
      | frames -> stack := pop frames)

let totals t =
  Hashtbl.fold
    (fun name a acc -> (name, a.count, a.total, a.self) :: acc)
    t.totals []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

let reset t =
  Hashtbl.reset t.stacks;
  Hashtbl.reset t.totals;
  t.events_rev <- []

(* Chrome trace_event JSON ("X" complete events, microsecond units):
   load into chrome://tracing or https://ui.perfetto.dev. *)
let to_chrome_json t =
  Json.compact
    (Json.Obj
       [
         ( "traceEvents",
           Json.Arr
             (List.rev_map
                (fun (name, tid, start, dur) ->
                  Json.Obj
                    [
                      ("name", Json.Str name); ("ph", Json.Str "X");
                      ("pid", Json.Int 0); ("tid", Json.Int tid);
                      ("ts", Json.fixed 3 (start *. 1e6));
                      ("dur", Json.fixed 3 (dur *. 1e6));
                    ])
                t.events_rev) );
       ])
