type state = {
  id : int;
  n : int;
  fault_bound : int;
  input : bool;
  output : bool option;
  x : bool;
  round : int;
}

let init ~n ~t ~id ~input =
  { id; n; fault_bound = t; input; output = None; x = input; round = 0 }

let round_message state = state.x

let on_round state received rng =
  let ones = List.length (List.filter snd received) in
  let zeros = List.length received - ones in
  let margin = abs (ones - zeros) in
  let majority = ones > zeros in
  let x = if margin = 0 then Prng.Stream.bool rng else majority in
  let output =
    match state.output with
    | Some _ as existing -> existing
    | None -> if margin > 2 * state.fault_bound then Some majority else None
  in
  { state with x; output; round = state.round + 1 }

let output state = state.output

let protocol =
  {
    Sync_engine.name = "sync-margin-consensus";
    init;
    round_message;
    on_round;
    output;
    estimate = (fun state -> state.x);
  }
