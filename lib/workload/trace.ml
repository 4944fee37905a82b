type op =
  | Read of string
  | Update of string * int * int
  | Insert of string * int * int
  | Scan of string * int
  | Delete of string

type t = op array

let draw gen =
  match Ycsb.next gen with
  | Ycsb.Read k -> Read k
  | Ycsb.Update (k, v) -> (
      match Ycsb.version_of v with
      | Some ver -> Update (k, Bytes.length v, ver)
      | None -> Update (k, Bytes.length v, 0))
  | Ycsb.Insert (k, v) -> (
      match Ycsb.version_of v with
      | Some ver -> Insert (k, Bytes.length v, ver)
      | None -> Insert (k, Bytes.length v, 0))
  | Ycsb.Scan (k, len) -> Scan (k, len)

let record gen ~ops = Array.init ops (fun _ -> draw gen)

type timed = { at : float; op : op }

(* Explicit loop, not [Array.init]: both [gap] and [gen] are stateful
   streams, and the arrival clock must advance in index order for the
   stamps to be monotone. *)
let record_timed gen ~gap ~ops =
  let trace = Array.make ops { at = 0.0; op = Read "" } in
  let clock = ref 0.0 in
  for i = 0 to ops - 1 do
    clock := !clock +. gap ();
    trace.(i) <- { at = !clock; op = draw gen }
  done;
  trace

let op_to_string = function
  | Read k -> Printf.sprintf "R %s" k
  | Update (k, size, ver) -> Printf.sprintf "U %s %d %d" k size ver
  | Insert (k, size, ver) -> Printf.sprintf "I %s %d %d" k size ver
  | Scan (k, n) -> Printf.sprintf "S %s %d" k n
  | Delete k -> Printf.sprintf "D %s" k

let op_of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "R"; k ] -> Ok (Read k)
  | [ "U"; k; size; ver ] -> (
      match (int_of_string_opt size, int_of_string_opt ver) with
      | Some s, Some v -> Ok (Update (k, s, v))
      | _ -> Error ("bad update: " ^ line))
  | [ "I"; k; size; ver ] -> (
      match (int_of_string_opt size, int_of_string_opt ver) with
      | Some s, Some v -> Ok (Insert (k, s, v))
      | _ -> Error ("bad insert: " ^ line))
  | [ "S"; k; n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Scan (k, n))
      | None -> Error ("bad scan: " ^ line))
  | [ "D"; k ] -> Ok (Delete k)
  | _ -> Error ("unparseable trace line: " ^ line)

let to_string t =
  let buf = Buffer.create (Array.length t * 24) in
  Array.iter
    (fun op ->
      Buffer.add_string buf (op_to_string op);
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  let rec parse acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest -> (
        match op_of_string line with
        | Ok op -> parse (op :: acc) rest
        | Error _ as e -> e)
  in
  parse [] lines

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load ~path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        of_string (really_input_string ic n))
  with Sys_error msg -> Error msg

let summary t =
  Array.fold_left
    (fun (r, u, i, s, d) op ->
      match op with
      | Read _ -> (r + 1, u, i, s, d)
      | Update _ -> (r, u + 1, i, s, d)
      | Insert _ -> (r, u, i + 1, s, d)
      | Scan _ -> (r, u, i, s + 1, d)
      | Delete _ -> (r, u, i, s, d + 1))
    (0, 0, 0, 0, 0) t
