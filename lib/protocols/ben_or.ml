module Round_map = Map.Make (Int)

type message =
  | Report of { round : int; value : bool }
  | Propose of { round : int; value : bool option }

type phase = Report_wait | Propose_wait

(* Tally codes, for reports and proposals alike: 0 and 1 are the bits,
   2 is the proposal [None] ('?'). *)
let proposal_code = function Some bit -> Bool.to_int bit | None -> 2
let code_char code = "01?".[code]

(* The declared thresholds, evaluated once per [init]. *)
type thresholds = { decide_at : int; wait_quorum : int }

let quorums =
  {
    Quorums.name = "ben-or";
    family = "ben-or";
    pos = __POS__;
    resilience = Symexpr.(div (sub n_ (int_ 1)) 5);
    thresholds =
      Symexpr.[ ("decide_at", add t_ (int_ 1)); ("wait_quorum", sub n_ t_) ];
  }

let evaluate quorums ~n ~t =
  let value = Quorums.value quorums ~n ~t in
  { decide_at = value "decide_at"; wait_quorum = value "wait_quorum" }

(* The fields that change only when a phase or a round ends. *)
type core = {
  id : int;
  n : int;
  fault_bound : int;
  thresholds : thresholds;
  input : bool;
  output : bool option;
  resets : int;
  round : int;
  phase : phase;
  x : bool;
}

(* The fields a delivery writes.  [reports] and [proposals] are the
   tallies of [core.round]; the maps hold only later rounds, so a
   message of the current round copies one tally and this record and
   nothing else. *)
type state = {
  reports : Tally.t;
  proposals : Tally.t;
  later_reports : Tally.t Round_map.t;
  later_proposals : Tally.t Round_map.t;
  outbox_rev : message Dsim.Step.send list;  (* pending sends, newest first *)
  core : core;
}

(* [later] with [src]'s vote added to [round]'s tally.  [mem] before
   [find]: a miss neither raises nor allocates. *)
let add_later later round ~src code =
  let tally = if Round_map.mem round later then Round_map.find round later else Tally.empty in
  Round_map.add round (Tally.add tally ~src code) later

(* [round]'s tally, taken out of [later], and the rounds after it, once
   per round transition: the maps hold only the few rounds with
   messages in flight, not n entries. *)
let take_round later round =
  if Round_map.is_empty later then (Tally.empty, later)
  else
    let _, tally, rest = Round_map.split round later in
    ((match tally with Some tally -> tally | None -> Tally.empty), rest)

(* Phase transition once the report quorum for the current round is in:
   propose the strict majority value if one exists, else '?'. *)
let finish_report_phase state =
  let core = state.core in
  let half = core.n / 2 in
  let proposal =
    if Tally.count_value state.reports 1 > half then Some true
    else if Tally.count_value state.reports 0 > half then Some false
    else None
  in
  {
    state with
    outbox_rev =
      Dsim.Step.Broadcast (Propose { round = core.round; value = proposal })
      :: state.outbox_rev;
    core = { core with phase = Propose_wait };
  }

(* Round transition once the proposal quorum is in: decide on t+1
   agreeing proposals, adopt on one, flip a coin on none. *)
let finish_propose_phase state rng =
  let core = state.core in
  let p_true = Tally.count_value state.proposals 1 in
  let p_false = Tally.count_value state.proposals 0 in
  let decide_at = core.thresholds.decide_at in
  let output =
    match core.output with
    | Some _ as existing -> existing
    | None ->
        if p_true >= decide_at then Some true
        else if p_false >= decide_at then Some false
        else None
  in
  let x =
    (* At most one value can be proposed by correct processors (two
       strict majorities of reports would intersect), but Byzantine
       corruption can make both appear; prefer the better-supported. *)
    if p_true = 0 && p_false = 0 then Prng.Stream.bool rng
    else if p_true > p_false then true
    else if p_false > p_true then false
    else core.x
  in
  let next_round = core.round + 1 in
  let reports, later_reports = take_round state.later_reports next_round in
  let proposals, later_proposals = take_round state.later_proposals next_round in
  {
    reports;
    proposals;
    later_reports;
    later_proposals;
    outbox_rev =
      Dsim.Step.Broadcast (Report { round = next_round; value = x })
      :: state.outbox_rev;
    core = { core with output; x; round = next_round; phase = Report_wait };
  }

(* Each step of the recursion finishes a phase that at least
   [wait_quorum] deliveries filled, so over a run it takes amortized
   O(1) steps per delivery, each O(log r) in the r rounds buffered. *)
(* lint: allow R15 *)
let rec advance state rng =
  let quorum = state.core.thresholds.wait_quorum in
  match state.core.phase with
  | Report_wait ->
      if Tally.count state.reports >= quorum then advance (finish_report_phase state) rng
      else state
  | Propose_wait ->
      if Tally.count state.proposals >= quorum then
        advance (finish_propose_phase state rng) rng
      else state

let fresh ~thresholds ~n ~t ~id ~input ~resets () =
  {
    reports = Tally.empty;
    proposals = Tally.empty;
    later_reports = Round_map.empty;
    later_proposals = Round_map.empty;
    outbox_rev = [ Dsim.Step.Broadcast (Report { round = 1; value = input }) ];
    core =
      {
        id;
        n;
        fault_bound = t;
        thresholds;
        input;
        output = None;
        resets;
        round = 1;
        phase = Report_wait;
        x = input;
      };
  }

(* One reversal per drain of the (short) send list: broadcasts are
   single [Step.Broadcast] values, not n envelopes.
   (* lint: allow R12 *) *)
let outgoing state = ({ state with outbox_rev = [] }, List.rev state.outbox_rev)

(* A message for a later round only waits: the current round's phase
   is what [advance] can finish. *)
let on_deliver state ~src message rng =
  let current = state.core.round in
  match message with
  | Report { round; value } ->
      let code = Bool.to_int value in
      if round = current then
        advance { state with reports = Tally.add state.reports ~src code } rng
      else if round > current then
        { state with later_reports = add_later state.later_reports round ~src code }
      else state
  | Propose { round; value } ->
      let code = proposal_code value in
      if round = current then
        advance { state with proposals = Tally.add state.proposals ~src code } rng
      else if round > current then
        { state with later_proposals = add_later state.later_proposals round ~src code }
      else state

(* Ben-Or has no re-join procedure: a reset processor restarts from its
   input.  Its output bit survives, per the model. *)
let on_reset { core; _ } =
  let restarted =
    fresh ~thresholds:core.thresholds ~n:core.n ~t:core.fault_bound ~id:core.id
      ~input:core.input ~resets:(core.resets + 1) ()
  in
  { restarted with core = { restarted.core with output = core.output } }

let output state = state.core.output

let observe { core; _ } =
  Dsim.Obs.make ~id:core.id ~round:core.round ~estimate:(Dsim.Obs.some_bit core.x)
    ~output:core.output ~input:core.input ~resets:core.resets
    ~phase:(match core.phase with Report_wait -> 0 | Propose_wait -> 1)

(* [bo:id:round:phase:x:output:input:resets:R{<reports>}:P{<proposals>}:<outbox>],
   each kind's tallies as [round[src:code,...];...] in ascending rounds
   and sources: the current round's (when it holds a vote) first, then
   the later rounds'. *)
let state_core state =
  let core = state.core in
  let b = Buffer.create 128 in
  let int i = Buffer.add_string b (string_of_int i) in
  let field_int i = Buffer.add_char b ':'; int i in
  let field_char c = Buffer.add_char b ':'; Buffer.add_char b c in
  let bit v = if v then '1' else '0' in
  (* A separator goes before every round but the first: the one written
     while the buffer still ends at the kind's start mark. *)
  let rounds cur later =
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
          Buffer.add_char b (code_char code))
        tally;
      Buffer.add_char b ']'
    in
    if Tally.count cur > 0 then round core.round cur;
    Round_map.iter round later
  in
  Buffer.add_string b "bo";
  field_int core.id;
  field_int core.round;
  field_char (match core.phase with Report_wait -> '0' | Propose_wait -> '1');
  field_char (bit core.x);
  field_char (match core.output with None -> '_' | Some v -> bit v);
  field_char (bit core.input);
  field_int core.resets;
  Buffer.add_string b ":R{";
  rounds state.reports state.later_reports;
  Buffer.add_string b "}:P{";
  rounds state.proposals state.later_proposals;
  Buffer.add_char b '}';
  field_int (Dsim.Step.send_count ~n:core.n state.outbox_rev);
  Buffer.contents b

(* [R(round,bit)] or [P(round,proposal)]. *)
let add_message b message =
  let add kind round value =
    Buffer.add_char b kind;
    Buffer.add_char b '(';
    Buffer.add_string b (string_of_int round);
    Buffer.add_char b ',';
    Buffer.add_char b value;
    Buffer.add_char b ')'
  in
  match message with
  | Report { round; value } -> add 'R' round (if value then '1' else '0')
  | Propose { round; value } -> add 'P' round (code_char (proposal_code value))

let protocol ?(name = "ben-or") ?(quorums = quorums) () =
  {
    Dsim.Protocol.name = name;
    init =
      (fun ~n ~t ~id ~input ->
        fresh ~thresholds:(evaluate quorums ~n ~t) ~n ~t ~id ~input ~resets:0
          ());
    outgoing;
    on_deliver;
    on_reset;
    output;
    observe;
    message_bit =
      (function
      | Report { value; _ } -> Some value
      | Propose { value; _ } -> value);
    message_round =
      (function Report { round; _ } | Propose { round; _ } -> Some round);
    message_origin = (fun _ -> None);
    rewrite_bit =
      (fun message bit ->
        match message with
        | Report r -> Some (Report { r with value = bit })
        | Propose p -> Some (Propose { p with value = Some bit }));
    state_core;
    props = { Dsim.Protocol.forgetful = true; fully_communicative = true };
    add_message;
  }
