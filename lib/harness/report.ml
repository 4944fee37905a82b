let section title =
  Printf.printf "\n=== %s ===\n" title

let table ~title ~columns rows =
  if title <> "" then Printf.printf "\n--- %s ---\n" title;
  let all = columns :: rows in
  let ncols =
    List.fold_left (fun acc row -> max acc (List.length row)) 0 all
  in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let print_row row =
    List.iteri
      (fun i cell ->
        if i = 0 then Printf.printf "%-*s" widths.(0) cell
        else Printf.printf "  %*s" widths.(i) cell)
      row;
    print_newline ()
  in
  print_row columns;
  print_row
    (List.mapi
       (fun i _ -> String.make widths.(i) '-')
       (List.init ncols Fun.id));
  List.iter print_row rows;
  flush stdout

let kops v =
  if v >= 1000.0 then Printf.sprintf "%.2fM" (v /. 1000.0)
  else Printf.sprintf "%.1fk" v

let us v = Printf.sprintf "%.1f" v
