(* Fleet over forked worker processes.

   The coordinator owns every decision: it hands the next unsent
   request of a [map] to whichever worker is idle, so each worker
   has at most one request outstanding and one answer to send. That is
   what lets [receive] [select] on the busy workers' answer pipes and
   then read one whole message from each ready one.

   Determinism does not come from the dispatch at all: answers land by
   request index and [map] raises the smallest failing index, so merged
   output is a pure function of the job function. *)

(* A job's exception cannot cross the pipe as a value (an unmarshalled
   exception is a fresh constructor no handler matches), so the worker
   sends its text and the coordinator raises it as [Remote], which
   prints as the worker printed it. *)
exception Remote of string

let () = Printexc.register_printer (function Remote s -> Some s | _ -> None)

type 'res answer = {
  minor_words : int;
  minor_collections : int;
  major_collections : int;
  outcome : ('res, string) result;
}

type worker = {
  mutable pid : int;  (* 0 once reaped *)
  requests : out_channel;
  answers : in_channel;
  mutable job : int;  (* index of the request in flight; -1 when idle *)
}

type ('req, 'res) t = { mutable workers : worker array }

let max_jobs = 64

let default_jobs () = Domain.recommended_domain_count ()

(* The worker's loop: one answer per request until the coordinator
   closes the request pipe. An answer that cannot be marshalled (it
   holds a closure) turns into its job's failure. *)
let serve f requests answers =
  let rec loop () =
    match Marshal.from_channel requests with
    | exception End_of_file -> ()
    | req ->
        (* [quick_stat]'s word count lags to the last minor collection;
           [Gc.minor_words] does not. *)
        let w0 = Gc.minor_words () and g0 = Gc.quick_stat () in
        let outcome =
          match f req with
          | v -> Ok v
          | exception e -> Error (Printexc.to_string e)
        in
        (* Empty the minor heap, so the next job allocates over the same
           pages. Each first write to a page is a fault; without this,
           every job faults on fresh pages until the worker has cycled
           through its whole minor heap (16 MB under --gc-tune). *)
        Gc.minor ();
        let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
        let answer outcome =
          Marshal.to_string
            {
              minor_words = int_of_float (w1 -. w0);
              minor_collections = g1.minor_collections - g0.minor_collections;
              major_collections = g1.major_collections - g0.major_collections;
              outcome;
            }
            []
        in
        let bytes =
          try answer outcome
          with e -> answer (Error (Printexc.to_string e))
        in
        output_string answers bytes;
        flush answers;
        loop ()
  in
  Unix._exit (try loop (); 0 with _ -> 2)

(* Fork one worker. The child closes the coordinator's ends of the
   workers forked before it: a copy of another worker's request pipe
   left open would keep that worker from ever seeing end of file. It
   then takes a minor heap of its own, sized [gc]. *)
let fork_worker gc f earlier =
  let req_r, req_w = Unix.pipe () in
  let ans_r, ans_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Array.iter
        (fun w ->
          Unix.close (Unix.descr_of_out_channel w.requests);
          Unix.close (Unix.descr_of_in_channel w.answers))
        earlier;
      Unix.close req_w;
      Unix.close ans_r;
      Gc.set gc;
      serve f (Unix.in_channel_of_descr req_r) (Unix.out_channel_of_descr ans_w)
  | pid ->
      Unix.close req_r;
      Unix.close ans_w;
      {
        pid;
        requests = Unix.out_channel_of_descr req_w;
        answers = Unix.in_channel_of_descr ans_r;
        job = -1;
      }

let reap w =
  if w.pid > 0 then begin
    ignore (Unix.waitpid [] w.pid);
    w.pid <- 0
  end

(* Stop every worker: closing a request pipe ends an idle worker's
   loop; one still busy (the body raised mid-[map]) is killed. All are
   told before any is reaped, so they tear down side by side. *)
let stop t =
  Array.iter
    (fun w ->
      close_out_noerr w.requests;
      if w.pid > 0 && w.job >= 0 then Unix.kill w.pid Sys.sigkill;
      close_in_noerr w.answers)
    t.workers;
  Array.iter reap t.workers

let with_workers ~jobs f body =
  (* Buffered output would otherwise sit in every child too. *)
  flush stdout;
  flush stderr;
  (* Start the workers at the end of a major cycle: a child that inherits
     one half done finishes it over the coordinator's whole heap, which
     it shares copy-on-write, so every page the collector writes is a
     fault and a copy. *)
  Gc.full_major ();
  let t = { workers = [||] } in
  Fun.protect
    ~finally:(fun () -> stop t)
    (fun () ->
      (* Fork with the minor heap shrunk to 32 KB. Forking copies the
         page tables and an exiting child tears its copy down, both in
         proportion to what is mapped, and the minor heap is a large
         part of that (16 MB under --gc-tune). Each side then takes a
         fresh minor heap of the configured size, which no other process
         shares. *)
      let gc = Gc.get () in
      Gc.set { gc with minor_heap_size = 4096 };
      for _ = 1 to max 1 (min jobs max_jobs) do
        t.workers <- Array.append t.workers [| fork_worker gc f t.workers |]
      done;
      Gc.set gc;
      body t)

(* Hand the next unsent request of [reqs], from [!next] on, to each
   idle worker. *)
let dispatch t reqs next =
  Array.iter
    (fun w ->
      if w.job < 0 && !next < Array.length reqs then begin
        w.job <- !next;
        Marshal.to_channel w.requests reqs.(!next) [];
        flush w.requests;
        incr next
      end)
    t.workers

let describe = function
  | Unix.WSIGNALED s when s = Sys.sigkill -> "was killed by SIGKILL"
  | Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d" s
  | Unix.WEXITED c | Unix.WSTOPPED c -> Printf.sprintf "exited (status %d)" c

let busy w = w.job >= 0

(* Read one answer from every busy worker that has one ready into
   [settled], by request index. *)
let receive t settled =
  let fd w = Unix.descr_of_in_channel w.answers in
  let running = List.filter busy (Array.to_list t.workers) in
  let ready, _, _ = Unix.select (List.map fd running) [] [] (-1.0) in
  List.iter
    (fun w ->
      if List.mem (fd w) ready then begin
        let job = w.job in
        match (Marshal.from_channel w.answers : _ answer) with
        | exception (End_of_file | Failure _) ->
            let _, status = Unix.waitpid [] w.pid in
            w.pid <- 0;
            failwith
              (Printf.sprintf "Fleet: the worker running job %d %s" job
                 (describe status))
        | a ->
            w.job <- -1;
            Prism_sim.Stats.note_foreign_gc ~minor_words:a.minor_words
              ~minor_collections:a.minor_collections
              ~major_collections:a.major_collections;
            settled.(job) <-
              Some (Result.map_error (fun text -> Remote text) a.outcome)
      end)
    running

let map t reqs =
  let settled = Array.make (Array.length reqs) None in
  let next = ref 0 in
  dispatch t reqs next;
  while Array.exists busy t.workers do
    receive t settled;
    dispatch t reqs next
  done;
  Array.map
    (fun r -> match Option.get r with Ok v -> v | Error e -> raise e)
    settled

let farm ~jobs n f =
  if jobs <= 1 || n <= 1 then Array.init n f
  else
    with_workers ~jobs:(min jobs n) f (fun t -> map t (Array.init n Fun.id))
