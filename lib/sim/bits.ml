let msb v =
  assert (v > 0);
  let pos = ref 0 in
  let v = ref v in
  if !v lsr 32 <> 0 then begin
    pos := !pos + 32;
    v := !v lsr 32
  end;
  if !v lsr 16 <> 0 then begin
    pos := !pos + 16;
    v := !v lsr 16
  end;
  if !v lsr 8 <> 0 then begin
    pos := !pos + 8;
    v := !v lsr 8
  end;
  if !v lsr 4 <> 0 then begin
    pos := !pos + 4;
    v := !v lsr 4
  end;
  if !v lsr 2 <> 0 then begin
    pos := !pos + 2;
    v := !v lsr 2
  end;
  if !v lsr 1 <> 0 then incr pos;
  !pos

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let ceil_div a b = (a + b - 1) / b

let round_up v multiple = ceil_div v multiple * multiple
