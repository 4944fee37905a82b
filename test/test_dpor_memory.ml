(* DPOR memory bound. A separate executable so the process-wide
   [top_heap_words] high-water mark belongs to this walk alone, not to
   whichever earlier test peaked highest.

   The walk's state must grow linearly in explored nodes: a node's path
   shares its parent's steps instead of copying the ancestor path. On
   the default checker shape (~2.8k tie decisions per run) a
   path-copying tree grows the major heap by about 45 MB per class;
   shared paths need about 3. *)

open Prism_check
open Helpers

let mb_per_word = float_of_int (Sys.word_size / 8) /. 1048576.0

let test_heap_per_class () =
  let classes = 16 in
  Gc.compact ();
  let base = (Gc.quick_stat ()).Gc.heap_words in
  let rep = Explore.run_dpor ~max_classes:classes Explore.default in
  Alcotest.(check int) "walk completed its budget" classes rep.Explore.classes;
  let grown = (Gc.quick_stat ()).Gc.top_heap_words - base in
  let per_class = float_of_int grown *. mb_per_word /. float_of_int classes in
  Alcotest.(check bool)
    (Printf.sprintf "heap growth %.1f MB per class < 8" per_class)
    true (per_class < 8.0)

let () =
  Alcotest.run "dpor-memory"
    [ ("dpor-memory", [ case "16-class walk heap bound" test_heap_per_class ]) ]
