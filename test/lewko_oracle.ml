(* The Section 3 variant algorithm as it stood before its state split
   into a hot outer record and a [core] of round-end fields, kept
   verbatim (one flat twelve-field record, every round's tally in one
   [Round_map], a [find_opt] per delivery, a [fold] over all rounds
   while recovering) as the oracle of the differential test in
   [test_lewko.ml]: both must give equal state cores, outputs,
   observations and sends after every call.  Only two lines differ from
   that module: [open Protocols], and [message] re-exports the
   library's message type so both sides' sends compare directly. *)

open Protocols

module Round_map = Map.Make (Int)

type message = Lewko_variant.message = { round : int; value : bool }

type mode = Normal | Recovering

type state = {
  id : int;
  n : int;
  fault_bound : int;
  thresholds : Thresholds.t;
  input : bool;
  output : bool option;
  resets : int;
  mode : mode;
  round : int;  (* meaningful in Normal mode *)
  x : bool;  (* meaningful in Normal mode *)
  tallies : Tally.t Round_map.t;  (* votes for current and future rounds *)
  outbox : message Dsim.Step.send list;
}

let tally_for state round =
  Option.value ~default:Tally.empty (Round_map.find_opt round state.tallies)

(* Step 3 of the algorithm, applied to the T1 (or more) votes collected
   for [round]: decide on T2 agreement, adopt on T3 agreement, otherwise
   flip a coin.  Returns the state advanced to [round + 1] with the next
   vote queued (step 4 + step 1). *)
let process_round ~coin state round rng =
  let tally = tally_for state round in
  let votes_for v = Tally.count_value tally (Bool.to_int v) in
  let { Thresholds.t2; t3; _ } = state.thresholds in
  let output =
    match state.output with
    | Some _ as existing -> existing
    | None ->
        if votes_for true >= t2 then Some true
        else if votes_for false >= t2 then Some false
        else None
  in
  let x =
    if votes_for true >= t3 then true
    else if votes_for false >= t3 then false
    else coin rng
  in
  let next_round = round + 1 in
  (* Prune tallies for rounds now in the past. *)
  let tallies = Round_map.filter (fun r _ -> r >= next_round) state.tallies in
  let state = { state with output; x; round = next_round; tallies; mode = Normal } in
  {
    state with
    outbox = state.outbox @ [ Dsim.Step.Broadcast { round = next_round; value = x } ];
  }

(* Fire every round whose tally has reached T1, in order.  In windowed
   executions at most one round fires per delivery, but free-running
   schedules can make several rounds ready at once. *)
let rec advance ~coin state rng =
  let t1 = state.thresholds.Thresholds.t1 in
  match state.mode with
  | Normal ->
      if Tally.count (tally_for state state.round) >= t1 then
        advance ~coin (process_round ~coin state state.round rng) rng
      else state
  | Recovering -> (
      (* Adopt the smallest round that has gathered T1 votes. *)
      let ready =
        Round_map.fold
          (fun round tally acc ->
            match acc with
            | Some _ -> acc
            | None -> if Tally.count tally >= t1 then Some round else None)
          state.tallies None
      in
      match ready with
      | None -> state
      | Some round -> advance ~coin (process_round ~coin state round rng) rng)

let init thresholds ~n ~t ~id ~input =
  (match Thresholds.validate ~n ~t thresholds with
  | Ok () -> ()
  | Error message ->
      Protocol_error.raise_error
        (Infeasible_thresholds
           { who = "Lewko_variant.init"; n; t; reason = message }));
  let state =
    {
      id;
      n;
      fault_bound = t;
      thresholds;
      input;
      output = None;
      resets = 0;
      mode = Normal;
      round = 1;
      x = input;
      tallies = Round_map.empty;
      outbox = [];
    }
  in
  { state with outbox = [ Dsim.Step.Broadcast { round = 1; value = input } ] }

let outgoing state = ({ state with outbox = [] }, state.outbox)

let on_deliver ~coin state ~src (message : message) rng =
  let relevant =
    match state.mode with
    | Normal -> message.round >= state.round
    | Recovering -> true
  in
  if not relevant then state
  else
    let tally = Tally.add (tally_for state message.round) ~src (Bool.to_int message.value) in
    let state = { state with tallies = Round_map.add message.round tally state.tallies } in
    advance ~coin state rng

(* A reset erases everything but input, output, identity and the reset
   counter; the processor re-joins via the Recovering mode. *)
let on_reset state =
  {
    state with
    resets = state.resets + 1;
    mode = Recovering;
    round = -1;
    tallies = Round_map.empty;
    outbox = [];
  }

let output state = state.output

let observe state =
  Dsim.Obs.make ~id:state.id
    ~round:(match state.mode with Normal -> state.round | Recovering -> -1)
    ~estimate:(match state.mode with Normal -> Some state.x | Recovering -> None)
    ~output:state.output ~input:state.input ~resets:state.resets
    ~phase:(match state.mode with Normal -> 0 | Recovering -> 1)

(* [lv:id:mode:output:round:x:input:resets:<tallies>:<outbox>], the
   tallies as [round[src:bit,...];...] in ascending rounds and sources. *)
let state_core state =
  let b = Buffer.create 96 in
  let int i = Buffer.add_string b (string_of_int i) in
  let field_int i = Buffer.add_char b ':'; int i in
  let field_char c = Buffer.add_char b ':'; Buffer.add_char b c in
  let bit v = if v then '1' else '0' in
  Buffer.add_string b "lv";
  field_int state.id;
  field_char (match state.mode with Normal -> 'N' | Recovering -> 'R');
  field_char (match state.output with None -> '_' | Some v -> bit v);
  field_int state.round;
  field_char (bit state.x);
  field_char (bit state.input);
  field_int state.resets;
  Buffer.add_char b ':';
  (* A separator goes before every round but the first: the one written
     while the buffer still ends at the map's start mark. *)
  let start = Buffer.length b in
  Round_map.iter
    (fun r tally ->
      if Buffer.length b > start then Buffer.add_char b ';';
      int r;
      Buffer.add_char b '[';
      let votes_start = Buffer.length b in
      Tally.iter
        (fun src code ->
          if Buffer.length b > votes_start then Buffer.add_char b ',';
          int src;
          Buffer.add_char b ':';
          int code)
        tally;
      Buffer.add_char b ']')
    state.tallies;
  field_int (Dsim.Step.send_count ~n:state.n state.outbox);
  Buffer.contents b

(* [(round,bit)]. *)
let add_message b (m : message) =
  Buffer.add_char b '(';
  Buffer.add_string b (string_of_int m.round);
  Buffer.add_char b ',';
  Buffer.add_char b (if m.value then '1' else '0');
  Buffer.add_char b ')'

let protocol ?thresholds ?(coin = Prng.Stream.bool) () =
  {
    Dsim.Protocol.name = "lewko-variant";
    init =
      (fun ~n ~t ~id ~input ->
        let th =
          match thresholds with Some th -> th | None -> Thresholds.default ~n ~t
        in
        init th ~n ~t ~id ~input);
    outgoing;
    on_deliver = on_deliver ~coin;
    on_reset;
    output;
    observe;
    message_bit = (fun m -> Some m.value);
    message_round = (fun m -> Some m.round);
    message_origin = (fun _ -> None);
    rewrite_bit = (fun m value -> Some { m with value });
    state_core;
    props = { Dsim.Protocol.forgetful = true; fully_communicative = true };
    add_message;
  }

let pending_votes state ~round = Tally.count (tally_for state round)
