type outcome = Accept | Shed

type spec =
  | Unbounded
  | Bounded of int
  | Token_bucket of { rate : float; burst : float }
  | Codel of { target : float; interval : float }

let name = function
  | Unbounded -> "unbounded"
  | Bounded _ -> "bounded"
  | Token_bucket _ -> "token-bucket"
  | Codel _ -> "codel"

let describe = function
  | Unbounded -> "unbounded"
  | Bounded b -> Printf.sprintf "bounded(%d)" b
  | Token_bucket { rate; burst } ->
      Printf.sprintf "token-bucket(%.0f/s,burst %.0f)" rate burst
  | Codel { target; interval } ->
      Printf.sprintf "codel(%.0fus,%.0fus)" (target *. 1e6) (interval *. 1e6)

let of_string ~capacity ~servers s =
  (* Defaults scale with the store through its service slot — the virtual
     time one request occupies one server, [servers / capacity] — so one
     flag works across stores whose speeds differ by an order of
     magnitude. A queue of depth d costs ~d/capacity of wait, so depth
     budgets are multiples of [servers] and delay budgets multiples of
     the slot. *)
  let slot = float_of_int servers /. Float.max 1.0 capacity in
  (* Parameters split on ':', never ',': a comma separates the policies
     of a list such as [sweep --policies]. *)
  let split_params v =
    String.split_on_char ':' v |> List.map float_of_string_opt
  in
  match String.split_on_char '=' (String.lowercase_ascii (String.trim s)) with
  | [ "unbounded" ] -> Ok Unbounded
  | [ "bounded" ] ->
      (* ~25 service slots of queueing delay at full drain rate. *)
      Ok (Bounded (max 16 (25 * servers)))
  | [ "bounded"; v ] -> (
      match int_of_string_opt v with
      | Some b when b > 0 -> Ok (Bounded b)
      | _ -> Error (Printf.sprintf "bounded=%s: positive integer expected" v))
  | [ "token-bucket" ] ->
      Ok
        (Token_bucket
           {
             rate = 0.95 *. capacity;
             burst = Float.max 8.0 (float_of_int (2 * servers));
           })
  | [ "token-bucket"; v ] -> (
      match split_params v with
      | [ Some rate ] when rate > 0.0 ->
          Ok
            (Token_bucket
               { rate; burst = Float.max 8.0 (float_of_int (2 * servers)) })
      | [ Some rate; Some burst ] when rate > 0.0 && burst >= 1.0 ->
          Ok (Token_bucket { rate; burst })
      | _ -> Error (Printf.sprintf "token-bucket=%s: RATE or RATE:BURST expected" v))
  | [ "codel" ] -> Ok (Codel { target = 5.0 *. slot; interval = 20.0 *. slot })
  | [ "codel"; v ] -> (
      match split_params v with
      | [ Some target_us; Some interval_us ] when target_us > 0.0 && interval_us > 0.0 ->
          Ok (Codel { target = target_us *. 1e-6; interval = interval_us *. 1e-6 })
      | _ -> Error (Printf.sprintf "codel=%s: TARGET_US:INTERVAL_US expected" v))
  | _ ->
      Error
        (Printf.sprintf
           "unknown policy %S (unbounded | bounded[=N] | token-bucket[=RATE[:BURST]] \
            | codel[=TARGET_US:INTERVAL_US])"
           s)

type state =
  | S_pass
  | S_bounded of int
  | S_bucket of {
      rate : float;
      burst : float;
      mutable tokens : float;
      mutable last : float; (* virtual time of the last refill *)
    }
  | S_codel of {
      target : float;
      interval : float;
      mutable first_above : float; (* 0.0 = delay not persistently above target *)
      mutable dropping : bool;
      mutable drop_next : float;
      mutable drop_count : int;
    }

type t = { spec : spec; state : state }

let create spec =
  let state =
    match spec with
    | Unbounded -> S_pass
    | Bounded b -> S_bounded b
    | Token_bucket { rate; burst } ->
        S_bucket { rate; burst; tokens = burst; last = 0.0 }
    | Codel { target; interval } ->
        S_codel
          {
            target;
            interval;
            first_above = 0.0;
            dropping = false;
            drop_next = 0.0;
            drop_count = 0;
          }
  in
  { spec; state }

let spec t = t.spec

let admit t ~now ~depth =
  match t.state with
  | S_pass | S_codel _ -> Accept
  | S_bounded b -> if depth >= b then Shed else Accept
  | S_bucket k ->
      k.tokens <- Float.min k.burst (k.tokens +. ((now -. k.last) *. k.rate));
      k.last <- now;
      if k.tokens >= 1.0 then begin
        k.tokens <- k.tokens -. 1.0;
        Accept
      end
      else Shed

let on_dequeue t ~now ~wait ~depth =
  match t.state with
  | S_pass | S_bounded _ | S_bucket _ -> Accept
  | S_codel c ->
      if wait < c.target || depth = 0 then begin
        (* Standing delay is back under target (or the queue drained):
           leave the dropping state entirely, control-law memory
           included — re-entering congestion later (e.g. after a lull in
           the offered load) must behave exactly like a fresh policy, with
           a full interval of grace and drop spacing restarted from 1. *)
        c.first_above <- 0.0;
        c.dropping <- false;
        c.drop_next <- 0.0;
        c.drop_count <- 0;
        Accept
      end
      else if c.first_above = 0.0 then begin
        (* Delay just crossed target: give it one interval to subside. *)
        c.first_above <- now +. c.interval;
        Accept
      end
      else if not c.dropping then
        if now >= c.first_above then begin
          (* Above target for a full interval: start dropping. *)
          c.dropping <- true;
          c.drop_count <- 1;
          c.drop_next <- now +. c.interval;
          Shed
        end
        else Accept
      else if now >= c.drop_next then begin
        (* Control law: drop spacing shrinks as interval / sqrt(count). *)
        c.drop_count <- c.drop_count + 1;
        c.drop_next <-
          now +. (c.interval /. sqrt (float_of_int c.drop_count));
        Shed
      end
      else Accept
