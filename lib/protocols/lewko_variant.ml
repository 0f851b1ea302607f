module Round_map = Map.Make (Int)

type message = { round : int; value : bool }

type mode = Normal | Recovering

(* The fields that change only when a round ends or a reset happens. *)
type core = {
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
}

(* The fields a delivery writes.  In Normal mode [cur] is the tally of
   [core.round] and [tallies] holds only later rounds, so a vote for
   the current round copies [cur] and this record and nothing else;
   while Recovering, [cur] is empty and [tallies] holds every round. *)
type state = {
  cur : Tally.t;
  tallies : Tally.t Round_map.t;
  outbox : message Dsim.Step.send list;
  core : core;
}

(* [mem] before [find]: a miss neither raises nor allocates. *)
let tally_in tallies round =
  if Round_map.mem round tallies then Round_map.find round tallies else Tally.empty

(* Step 3 of the algorithm, applied to the T1 (or more) votes in
   [tally], collected for [round]: decide on T2 agreement, adopt on T3
   agreement, otherwise flip a coin.  Returns the state advanced to
   [round + 1] with the next vote queued (step 4 + step 1). *)
let process_round ~coin state round tally rng =
  let core = state.core in
  let votes_for v = Tally.count_value tally (Bool.to_int v) in
  let { Thresholds.t2; t3; _ } = core.thresholds in
  let output =
    match core.output with
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
  (* The next round's tally becomes [cur]; rounds now in the past are
     pruned. *)
  let cur, tallies =
    if Round_map.is_empty state.tallies then (Tally.empty, state.tallies)
    else
      let _, next, later = Round_map.split next_round state.tallies in
      ((match next with Some tally -> tally | None -> Tally.empty), later)
  in
  {
    cur;
    tallies;
    outbox = state.outbox @ [ Dsim.Step.Broadcast { round = next_round; value = x } ];
    core = { core with output; x; round = next_round; mode = Normal };
  }

(* Fire the current round while its tally has reached T1.  In windowed
   executions at most one round fires per delivery, but free-running
   schedules can make several rounds ready at once. *)
let rec advance ~coin state rng =
  if Tally.count state.cur >= state.core.thresholds.Thresholds.t1 then
    advance ~coin (process_round ~coin state state.core.round state.cur rng) rng
  else state

let init thresholds ~n ~t ~id ~input =
  (match Thresholds.validate ~n ~t thresholds with
  | Ok () -> ()
  | Error message ->
      Protocol_error.raise_error
        (Infeasible_thresholds
           { who = "Lewko_variant.init"; n; t; reason = message }));
  {
    cur = Tally.empty;
    tallies = Round_map.empty;
    outbox = [ Dsim.Step.Broadcast { round = 1; value = input } ];
    core =
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
      };
  }

let outgoing state = ({ state with outbox = [] }, state.outbox)

(* A recovering processor adopts the smallest round that has gathered
   T1 votes.  No round had before this vote (it would have been
   adopted), so only the round just voted for can qualify. *)
let on_deliver ~coin state ~src (message : message) rng =
  let core = state.core and code = Bool.to_int message.value in
  match core.mode with
  | Normal ->
      if message.round = core.round then
        advance ~coin { state with cur = Tally.add state.cur ~src code } rng
      else if message.round > core.round then
        let tally = Tally.add (tally_in state.tallies message.round) ~src code in
        { state with tallies = Round_map.add message.round tally state.tallies }
      else state
  | Recovering ->
      let tally = Tally.add (tally_in state.tallies message.round) ~src code in
      (* Adopting prunes this round with every earlier one. *)
      if Tally.count tally >= core.thresholds.Thresholds.t1 then
        advance ~coin (process_round ~coin state message.round tally rng) rng
      else { state with tallies = Round_map.add message.round tally state.tallies }

(* A reset erases everything but input, output, identity and the reset
   counter; the processor re-joins via the Recovering mode. *)
let on_reset state =
  {
    cur = Tally.empty;
    tallies = Round_map.empty;
    outbox = [];
    core = { state.core with resets = state.core.resets + 1; mode = Recovering; round = -1 };
  }

let output state = state.core.output

let observe { core; _ } =
  Dsim.Obs.make ~id:core.id
    ~round:(match core.mode with Normal -> core.round | Recovering -> -1)
    ~estimate:(match core.mode with Normal -> Some core.x | Recovering -> None)
    ~output:core.output ~input:core.input ~resets:core.resets
    ~phase:(match core.mode with Normal -> 0 | Recovering -> 1)

(* [lv:id:mode:output:round:x:input:resets:<tallies>:<outbox>], the
   tallies as [round[src:bit,...];...] in ascending rounds and sources:
   [cur] (when it holds a vote) at its round's place, which comes
   before every round in [tallies]. *)
let state_core { cur; tallies; outbox; core } =
  let b = Buffer.create 96 in
  let int i = Buffer.add_string b (string_of_int i) in
  let field_int i = Buffer.add_char b ':'; int i in
  let field_char c = Buffer.add_char b ':'; Buffer.add_char b c in
  let bit v = if v then '1' else '0' in
  Buffer.add_string b "lv";
  field_int core.id;
  field_char (match core.mode with Normal -> 'N' | Recovering -> 'R');
  field_char (match core.output with None -> '_' | Some v -> bit v);
  field_int core.round;
  field_char (bit core.x);
  field_char (bit core.input);
  field_int core.resets;
  Buffer.add_char b ':';
  (* A separator goes before every round but the first: the one written
     while the buffer still ends at the rounds' start mark. *)
  let start = Buffer.length b in
  let round r tally =
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
    Buffer.add_char b ']'
  in
  if Tally.count cur > 0 then round core.round cur;
  Round_map.iter round tallies;
  field_int (Dsim.Step.send_count ~n:core.n outbox);
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

let pending_votes state ~round =
  match state.core.mode with
  | Normal when Int.equal round state.core.round -> Tally.count state.cur
  | Normal | Recovering -> Tally.count (tally_in state.tallies round)
