(* Shared test utilities. *)

open Prism_sim

(* Run [f] inside a fresh simulation and return its result. Fails the test
   if the simulation ends without [f] completing. *)
let in_sim f =
  let engine = Engine.create () in
  let result = ref None in
  Engine.spawn engine (fun () -> result := Some (f engine));
  ignore (Engine.run engine);
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation ended before the test body completed"

(* Run [f] with the engine, then keep running until quiescence. *)
let in_sim_drain f =
  let engine = Engine.create () in
  let result = ref None in
  Engine.spawn engine (fun () -> result := Some (f engine));
  ignore (Engine.run engine);
  !result

let case name f = Alcotest.test_case name `Quick f

(* The minimum entry's (time, seq), read the way the engine's dispatch
   loop reads it: [advance_if_due] writes the time into a clock cell, and
   the first gathered tie is the minimum entry. *)
let heap_min h =
  let clock = [| neg_infinity; infinity; 0.0 |] in
  if Heap.advance_if_due h clock then begin
    ignore (Heap.gather_ties h);
    Some (clock.(0), Heap.tie_seq h 0)
  end
  else None

let heap_pop h =
  match heap_min h with
  | Some (time, seq) -> Some (time, seq, Heap.pop_unsafe h)
  | None -> None

let qcase ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count gen prop)

let bytes_eq = Alcotest.testable (fun fmt b -> Format.fprintf fmt "%S" (Bytes.to_string b)) Bytes.equal

let key i = Printf.sprintf "key%08d" i

let value ?(size = 64) i =
  let s = Printf.sprintf "value-%d-" i in
  let b = Bytes.make (max size (String.length s)) 'x' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_approx name a b =
  if not (approx ~eps:(1e-6 *. Float.max 1.0 (Float.abs b)) a b) then
    Alcotest.failf "%s: expected %g, got %g" name b a

(* An exact fingerprint of a crash-sweep report: boundary totals, the
   injected crash count, and every violation's fields in order. Tests pin
   it so a refactor of the sweep must reproduce the report byte for
   byte. *)
let sweep_digest (r : Prism_check.Crash_sweep.report) =
  let open Prism_check.Crash_sweep in
  let b = Buffer.create 256 in
  List.iter (fun (name, n) -> Printf.bprintf b "%s=%d\n" name n) r.boundaries;
  Printf.bprintf b "crash_points=%d\n" r.crash_points;
  List.iter
    (fun v ->
      Printf.bprintf b "%d|%s|%s|%s\n" v.crash_point v.boundary v.key v.detail)
    r.violations;
  Digest.to_hex (Digest.string (Buffer.contents b))
