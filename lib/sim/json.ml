type t =
  | Bool of bool
  | Int of int
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Row of (string * t) list
  | Raw of string

let fixed d x = Num (Printf.sprintf "%.*f" d x)

let int64 n = Num (Int64.to_string n)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* [pretty] picks the indented layout; [indent] is the column of the
   line the value starts on. *)
let rec add b ~pretty indent v =
  let str s =
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  in
  let items ~sep f l =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b sep;
        f x)
      l
  in
  let member ~colon (k, v) =
    str k;
    Buffer.add_string b colon;
    add b ~pretty (indent + 2) v
  in
  let close c =
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_char b c
  in
  match v with
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Num s | Raw s -> Buffer.add_string b s
  | Str s -> str s
  | Arr l when pretty ->
      let pad = "\n" ^ String.make (indent + 2) ' ' in
      Buffer.add_char b '[';
      items ~sep:"," (fun v -> Buffer.add_string b pad; add b ~pretty (indent + 2) v) l;
      close ']'
  | Obj l when pretty ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b "{\n";
      items ~sep:",\n" (fun m -> Buffer.add_string b pad; member ~colon:": " m) l;
      close '}'
  | Row l when pretty ->
      Buffer.add_string b "{ ";
      items ~sep:", " (member ~colon:": ") l;
      Buffer.add_string b " }"
  | Arr l ->
      Buffer.add_char b '[';
      items ~sep:"," (add b ~pretty indent) l;
      Buffer.add_char b ']'
  | Obj l | Row l ->
      Buffer.add_char b '{';
      items ~sep:"," (member ~colon:":") l;
      Buffer.add_char b '}'

let render ~pretty v =
  let b = Buffer.create 4096 in
  add b ~pretty 0 v;
  if pretty then Buffer.add_char b '\n';
  Buffer.contents b

let to_string v = render ~pretty:true v

let compact v = render ~pretty:false v

let write path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc
