module Round_map = Map.Make (Int)
module Int_map = Map.Make (Int)

type message =
  | Report of { round : int; value : bool }
  | Propose of { round : int; value : bool option }

type phase = Report_wait | Propose_wait

(* Proposal tally: at most one proposal per sender; counts per bit plus
   a total, so quorum checks never re-scan the map (lint R13). *)
type ptally = {
  proposals : bool option Int_map.t;
  p_true : int;
  p_false : int;
  p_count : int;  (* |proposals|, including '?' entries *)
}

let ptally_empty =
  { proposals = Int_map.empty; p_true = 0; p_false = 0; p_count = 0 }

let ptally_add t ~src value =
  if Int_map.mem src t.proposals then t
  else
    {
      proposals = Int_map.add src value t.proposals;
      p_true = (t.p_true + match value with Some true -> 1 | _ -> 0);
      p_false = (t.p_false + match value with Some false -> 1 | _ -> 0);
      p_count = t.p_count + 1;
    }

let ptally_count t = t.p_count

let ptally_fingerprint t =
  Int_map.bindings t.proposals
  |> List.map (fun (src, v) ->
         Printf.sprintf "%d:%s" src
           (match v with None -> "?" | Some true -> "1" | Some false -> "0"))
  |> String.concat ","

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
  proposals : ptally Round_map.t;
  outbox_rev : message Dsim.Step.send list;  (* pending sends, newest first *)
}

let reports_for state round =
  Option.value ~default:Tally.empty (Round_map.find_opt round state.reports)

let proposals_for state round =
  Option.value ~default:ptally_empty (Round_map.find_opt round state.proposals)

let wait_quorum state = state.thresholds.wait_quorum

(* Phase transition once the report quorum for the current round is in:
   propose the strict majority value if one exists, else '?'. *)
let finish_report_phase state =
  let tally = reports_for state state.round in
  let half = state.n / 2 in
  let proposal =
    if Tally.count_value tally true > half then Some true
    else if Tally.count_value tally false > half then Some false
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
  let decide_at = state.thresholds.decide_at in
  let output =
    match state.output with
    | Some _ as existing -> existing
    | None ->
        if tally.p_true >= decide_at then Some true
        else if tally.p_false >= decide_at then Some false
        else None
  in
  let x =
    (* At most one value can be proposed by correct processors (two
       strict majorities of reports would intersect), but Byzantine
       corruption can make both appear; prefer the better-supported. *)
    if tally.p_true = 0 && tally.p_false = 0 then Prng.Stream.bool rng
    else if tally.p_true > tally.p_false then true
    else if tally.p_false > tally.p_true then false
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
      if ptally_count (proposals_for state state.round) >= quorum then
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
        let tally = Tally.add (reports_for state round) ~src value in
        advance { state with reports = Round_map.add round tally state.reports } rng
  | Propose { round; value } ->
      if round < state.round then state
      else
        let tally = ptally_add (proposals_for state round) ~src value in
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

let state_core state =
  let bit b = if b then '1' else '0' in
  let reports =
    Round_map.bindings state.reports
    |> List.map (fun (r, t) -> Printf.sprintf "%d[%s]" r (Tally.fingerprint t))
    |> String.concat ";"
  in
  let proposals =
    Round_map.bindings state.proposals
    |> List.map (fun (r, t) -> Printf.sprintf "%d[%s]" r (ptally_fingerprint t))
    |> String.concat ";"
  in
  Printf.sprintf "bo:%d:%d:%d:%c:%s:%c:%d:R{%s}:P{%s}:%d" state.id state.round
    (match state.phase with Report_wait -> 0 | Propose_wait -> 1)
    (bit state.x)
    (match state.output with None -> "_" | Some v -> String.make 1 (bit v))
    (bit state.input) state.resets reports proposals
    (Dsim.Step.send_count ~n:state.n state.outbox_rev)

let pp_message ppf = function
  | Report { round; value } ->
      Format.fprintf ppf "R(%d,%d)" round (if value then 1 else 0)
  | Propose { round; value } ->
      Format.fprintf ppf "P(%d,%s)" round
        (match value with None -> "?" | Some true -> "1" | Some false -> "0")

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
    pp_message;
  }
