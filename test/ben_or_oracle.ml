(* Ben-Or's protocol as it stood before its state split into hot
   current-round tallies and a [core] of round-end fields, kept
   verbatim (one flat thirteen-field record, every round's reports and
   proposals in two [Round_map]s, a [find_opt] per delivery) as the
   oracle of the differential test in [test_ben_or.ml]: both must give
   equal state cores, outputs, observations and sends after every
   call.  Only two lines differ from that module: [open Protocols], and
   [message] re-exports the library's message type so both sides'
   sends compare directly. *)

open Protocols

module Round_map = Map.Make (Int)
module Int_map = Map.Make (Int)

type message = Ben_or.message =
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

type state = {
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
  reports : Tally.t Round_map.t;
  proposals : Tally.t Round_map.t;
  outbox_rev : message Dsim.Step.send list;  (* pending sends, newest first *)
}

let reports_for state round =
  Option.value ~default:Tally.empty (Round_map.find_opt round state.reports)

let proposals_for state round =
  Option.value ~default:Tally.empty (Round_map.find_opt round state.proposals)

let wait_quorum state = state.thresholds.wait_quorum

(* Phase transition once the report quorum for the current round is in:
   propose the strict majority value if one exists, else '?'. *)
let finish_report_phase state =
  let tally = reports_for state state.round in
  let half = state.n / 2 in
  let proposal =
    if Tally.count_value tally 1 > half then Some true
    else if Tally.count_value tally 0 > half then Some false
    else None
  in
  let state = { state with phase = Propose_wait } in
  {
    state with
    outbox_rev =
      Dsim.Step.Broadcast (Propose { round = state.round; value = proposal })
      :: state.outbox_rev;
  }

(* Round transition once the proposal quorum is in: decide on t+1
   agreeing proposals, adopt on one, flip a coin on none. *)
let finish_propose_phase state rng =
  let tally = proposals_for state state.round in
  let p_true = Tally.count_value tally 1 in
  let p_false = Tally.count_value tally 0 in
  let decide_at = state.thresholds.decide_at in
  let output =
    match state.output with
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
    else state.x
  in
  let next_round = state.round + 1 in
  (* Garbage-collect rounds left behind, once per round transition; the
     maps hold only the few rounds with in-flight messages, not n
     entries.  (* lint: allow R13 *) *)
  let reports = Round_map.filter (fun r _ -> r >= next_round) state.reports in
  (* lint: allow R13 — same once-per-round sweep as [reports] above *)
  let proposals = Round_map.filter (fun r _ -> r >= next_round) state.proposals in
  let state =
    { state with output; x; round = next_round; phase = Report_wait; reports; proposals }
  in
  {
    state with
    outbox_rev =
      Dsim.Step.Broadcast (Report { round = next_round; value = x })
      :: state.outbox_rev;
  }

let rec advance state rng =
  let quorum = wait_quorum state in
  match state.phase with
  | Report_wait ->
      if Tally.count (reports_for state state.round) >= quorum then
        advance (finish_report_phase state) rng
      else state
  | Propose_wait ->
      if Tally.count (proposals_for state state.round) >= quorum then
        advance (finish_propose_phase state rng) rng
      else state

let fresh ~thresholds ~n ~t ~id ~input ~resets () =
  let state =
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
      reports = Round_map.empty;
      proposals = Round_map.empty;
      outbox_rev = [];
    }
  in
  {
    state with
    outbox_rev = [ Dsim.Step.Broadcast (Report { round = 1; value = input }) ];
  }

(* One reversal per drain of the (short) send list: broadcasts are
   single [Step.Broadcast] values, not n envelopes.
   (* lint: allow R12 *) *)
let outgoing state = ({ state with outbox_rev = [] }, List.rev state.outbox_rev)

let on_deliver state ~src message rng =
  match message with
  | Report { round; value } ->
      if round < state.round then state
      else
        let tally = Tally.add (reports_for state round) ~src (Bool.to_int value) in
        advance { state with reports = Round_map.add round tally state.reports } rng
  | Propose { round; value } ->
      if round < state.round then state
      else
        let tally = Tally.add (proposals_for state round) ~src (proposal_code value) in
        advance { state with proposals = Round_map.add round tally state.proposals } rng

(* Ben-Or has no re-join procedure: a reset processor restarts from its
   input.  Its output bit survives, per the model. *)
let on_reset state =
  let restarted =
    fresh ~thresholds:state.thresholds ~n:state.n ~t:state.fault_bound
      ~id:state.id ~input:state.input ~resets:(state.resets + 1) ()
  in
  { restarted with output = state.output }

let output state = state.output

let observe state =
  Dsim.Obs.make ~id:state.id ~round:state.round ~estimate:(Some state.x)
    ~output:state.output ~input:state.input ~resets:state.resets
    ~phase:(match state.phase with Report_wait -> 0 | Propose_wait -> 1)

(* [bo:id:round:phase:x:output:input:resets:R{<reports>}:P{<proposals>}:<outbox>],
   each tally map as [round[src:code,...];...] in ascending rounds and
   sources. *)
let state_core state =
  let b = Buffer.create 128 in
  let int i = Buffer.add_string b (string_of_int i) in
  let field_int i = Buffer.add_char b ':'; int i in
  let field_char c = Buffer.add_char b ':'; Buffer.add_char b c in
  let bit v = if v then '1' else '0' in
  (* A separator goes before every round but the first: the one written
     while the buffer still ends at the map's start mark. *)
  let rounds map =
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
            Buffer.add_char b (code_char code))
          tally;
        Buffer.add_char b ']')
      map
  in
  Buffer.add_string b "bo";
  field_int state.id;
  field_int state.round;
  field_char (match state.phase with Report_wait -> '0' | Propose_wait -> '1');
  field_char (bit state.x);
  field_char (match state.output with None -> '_' | Some v -> bit v);
  field_char (bit state.input);
  field_int state.resets;
  Buffer.add_string b ":R{";
  rounds state.reports;
  Buffer.add_string b "}:P{";
  rounds state.proposals;
  Buffer.add_char b '}';
  field_int (Dsim.Step.send_count ~n:state.n state.outbox_rev);
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
