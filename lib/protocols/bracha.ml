module Int_map = Map.Make (Int)

type vote = Val of bool | Dec of bool
type message = vote Reliable_broadcast.msg

let tag_of ~round ~phase = (round * 4) + phase
let round_of_tag tag = tag / 4
let phase_of_tag tag = tag mod 4

(* Incremental per-tag quorum counters: one bump when a vote is
   admitted, O(1) reads at every justification/threshold check.  These
   mirror [admitted] exactly; the per-delivery re-scans of the admitted
   maps they replaced were the cost linter's R13 findings. *)
type tally = { val_t : int; val_f : int; dec_t : int; dec_f : int }

let tally_empty = { val_t = 0; val_f = 0; dec_t = 0; dec_f = 0 }

let tally_add tally = function
  | Val true -> { tally with val_t = tally.val_t + 1 }
  | Val false -> { tally with val_f = tally.val_f + 1 }
  | Dec true -> { tally with dec_t = tally.dec_t + 1 }
  | Dec false -> { tally with dec_f = tally.dec_f + 1 }

let tally_with_bit tally bit =
  if bit then tally.val_t + tally.dec_t else tally.val_f + tally.dec_f

let tally_total tally = tally.val_t + tally.val_f + tally.dec_t + tally.dec_f

let quorums =
  {
    Quorums.name = "bracha";
    family = "bracha";
    pos = __POS__;
    resilience = Symexpr.(div (sub n_ (int_ 1)) 3);
    thresholds =
      Symexpr.
        [
          ("decide_at", add (scale 2 t_) (int_ 1));
          ("adopt_at", add t_ (int_ 1));
          ("quorum", sub n_ t_);
        ]
      @ Reliable_broadcast.quorums.thresholds;
  }

(* The declared thresholds Bracha itself reads (the [rbc_*] keys are
   evaluated by [Reliable_broadcast.create]), once per [init]. *)
type thresholds = { decide_at : int; adopt_at : int; quorum : int }

let evaluate quorums ~n ~t =
  let value = Quorums.value quorums ~n ~t in
  {
    decide_at = value "decide_at";
    adopt_at = value "adopt_at";
    quorum = value "quorum";
  }

type state = {
  id : int;
  n : int;
  fault_bound : int;
  thresholds : thresholds;
  input : bool;
  output : bool option;
  resets : int;
  round : int;
  phase : int;  (* 1..3: the acceptance quorum currently awaited *)
  x : bool;
  rbc : vote Reliable_broadcast.t;
  validated : bool;
  admitted : vote Int_map.t Int_map.t;  (* tag -> origin -> vote *)
  tallies : tally Int_map.t;  (* tag -> admitted-vote counts *)
  quarantine : (int * int * vote) list;  (* (tag, origin, vote), unjustified *)
  outbox_rev : message Dsim.Step.send list;  (* pending sends, newest first *)
}

let bit_of_vote = function Val b | Dec b -> b

let vote_equal a b =
  match (a, b) with
  | Val x, Val y | Dec x, Dec y -> Bool.equal x y
  | Val _, Dec _ | Dec _, Val _ -> false

let quorum state = state.thresholds.quorum

let admitted_for state tag =
  Option.value ~default:Int_map.empty (Int_map.find_opt tag state.admitted)

let tally_for state tag =
  Option.value ~default:tally_empty (Int_map.find_opt tag state.tallies)

let admitted_count_with_bit state tag bit = tally_with_bit (tally_for state tag) bit

(* Bracha's validation filter, monotone form: can this vote have been
   produced by a correct processor, given the prior-phase votes this
   validator has itself admitted so far? *)
let justified state ~tag ~vote =
  let round = round_of_tag tag and phase = phase_of_tag tag in
  match phase with
  | 1 -> true (* round-r preferences can always come from a coin *)
  | 2 ->
      (* The sender saw an (n - t)-subset of phase-1 votes with
         majority v: needs at least floor((n-t)/2)+1 such votes. *)
      let v = bit_of_vote vote in
      let needed = ((state.n - state.fault_bound) / 2) + 1 in
      admitted_count_with_bit state (tag_of ~round ~phase:1) v >= needed
  | 3 -> (
      match vote with
      | Dec v ->
          (* The sender saw more than n/2 phase-2 votes for v. *)
          let needed = (state.n / 2) + 1 in
          admitted_count_with_bit state (tag_of ~round ~phase:2) v >= needed
      | Val _ -> true)
  | _ -> false

let admit state ~tag ~origin ~vote =
  let per_tag = admitted_for state tag in
  (* RBC accepts at most one payload per (origin, tag), so re-admission
     cannot happen; the guard keeps the tallies exact regardless. *)
  if Int_map.mem origin per_tag then state
  else
    {
      state with
      admitted = Int_map.add tag (Int_map.add origin vote per_tag) state.admitted;
      tallies = Int_map.add tag (tally_add (tally_for state tag) vote) state.tallies;
    }

(* Route a fresh RBC acceptance through the filter, then re-examine the
   quarantine until no more votes become justified (justification is
   monotone in the admitted sets, so this terminates). *)
(* The recursion drains the quarantine list; justification is
   monotone, so each quarantined vote is re-examined at most once per
   admission, amortized O(1) per delivered message. *)
(* lint: allow R15 *)
let rec ingest state ~tag ~origin ~vote =
  if (not state.validated) || justified state ~tag ~vote then
    let state = admit state ~tag ~origin ~vote in
    drain_quarantine state
  else { state with quarantine = (tag, origin, vote) :: state.quarantine }

and drain_quarantine state =
  (* The quarantine holds only accepted-but-unjustified votes, i.e.
     fabrications a Byzantine origin pushed through RBC — at most t per
     tag — and justification conditions move as admitted sets grow, so
     the monotone drain re-examines the (short) list rather than
     keeping counters. *)
  let ready, still =
    (* lint: allow R13 — short unjustified-vote list, not a quorum map *)
    List.partition (fun (tag, _, vote) -> justified state ~tag ~vote) state.quarantine
  in
  match ready with
  | [] -> state
  | _ ->
      let state = { state with quarantine = still } in
      (* lint: allow R13 — drains each quarantined vote exactly once *)
      List.fold_left
        (fun s (tag, origin, vote) -> ingest s ~tag ~origin ~vote)
        state ready

let rbc_broadcast state payload =
  let tag = tag_of ~round:state.round ~phase:state.phase in
  let rbc, sends = Reliable_broadcast.broadcast state.rbc ~tag payload in
  (* Our own broadcast is trivially justified for us.  [sends] is at
     most one [Step.Broadcast] value, so queueing it is O(1).
     (* lint: allow R12 *) *)
  { state with rbc; outbox_rev = List.rev_append sends state.outbox_rev }

(* Process a completed phase quorum.  [tally] is the admitted-vote
   count for the current (round, phase) tag — the incremental mirror of
   what used to be recomputed here by filtering the admitted list. *)
let finish_phase state tally rng =
  match state.phase with
  | 1 ->
      let ones = tally_with_bit tally true in
      let zeros = tally_with_bit tally false in
      let x = if ones > zeros then true else false in
      let state = { state with x; phase = 2 } in
      rbc_broadcast state (Val x)
  | 2 ->
      let half = state.n / 2 in
      let ones = tally_with_bit tally true in
      let zeros = tally_with_bit tally false in
      let payload =
        if ones > half then Dec true
        else if zeros > half then Dec false
        else Val state.x
      in
      let state = { state with phase = 3 } in
      rbc_broadcast state payload
  | 3 ->
      let dec_true = tally.dec_t in
      let dec_false = tally.dec_f in
      let decide_at = state.thresholds.decide_at in
      let adopt_at = state.thresholds.adopt_at in
      let output =
        match state.output with
        | Some _ as existing -> existing
        | None ->
            if dec_true >= decide_at then Some true
            else if dec_false >= decide_at then Some false
            else None
      in
      let x =
        if dec_true >= adopt_at && dec_true >= dec_false then true
        else if dec_false >= adopt_at then false
        else Prng.Stream.bool rng
      in
      let state = { state with output; x; round = state.round + 1; phase = 1 } in
      rbc_broadcast state (Val x)
  | _ -> assert false

let rec advance state rng =
  let tag = tag_of ~round:state.round ~phase:state.phase in
  let tally = tally_for state tag in
  if tally_total tally >= quorum state then advance (finish_phase state tally rng) rng
  else state

let init_with ~thresholds ~validated ~rbc ~n ~t ~id ~input () =
  let state =
    {
      id;
      n;
      fault_bound = t;
      thresholds;
      input;
      output = None;
      resets = 0;
      round = 1;
      phase = 1;
      x = input;
      rbc;
      validated;
      admitted = Int_map.empty;
      tallies = Int_map.empty;
      quarantine = [];
      outbox_rev = [];
    }
  in
  rbc_broadcast state (Val input)

(* One reversal per drain of the (short) send list: broadcasts are
   single [Step.Broadcast] values, not n envelopes.
   (* lint: allow R12 *) *)
let outgoing state = ({ state with outbox_rev = [] }, List.rev state.outbox_rev)

let on_deliver state ~src message rng =
  let rbc, sends, accepted = Reliable_broadcast.receive state.rbc ~src message in
  (* [sends] is at most one [Step.Broadcast] value: O(1) to queue.
     (* lint: allow R12 *) *)
  let state = { state with rbc; outbox_rev = List.rev_append sends state.outbox_rev } in
  let tag =
    match message with
    | Reliable_broadcast.Initial { tag; _ }
    | Reliable_broadcast.Echo { tag; _ }
    | Reliable_broadcast.Ready { tag; _ } ->
        tag
  in
  let state =
    (* lint: allow R13 — [accepted] has at most one element per receive *)
    List.fold_left
      (fun s (origin, vote) -> ingest s ~tag ~origin ~vote)
      state accepted
  in
  advance state rng

(* Like Ben-Or, Bracha has no re-join procedure: restart from input.
   The evaluated thresholds carry over, and [reset_like] keeps the RBC
   parameters while clearing its instances. *)
let on_reset state =
  let restarted =
    init_with ~thresholds:state.thresholds ~validated:state.validated
      ~rbc:(Reliable_broadcast.reset_like state.rbc) ~n:state.n
      ~t:state.fault_bound ~id:state.id ~input:state.input ()
  in
  { restarted with output = state.output; resets = state.resets + 1 }

let output state = state.output

let observe state =
  Dsim.Obs.make ~id:state.id ~round:state.round ~estimate:(Some state.x)
    ~output:state.output ~input:state.input ~resets:state.resets ~phase:state.phase

let vote_fingerprint = function
  | Val true -> "V1"
  | Val false -> "V0"
  | Dec true -> "D1"
  | Dec false -> "D0"

let state_core state =
  let bit b = if b then '1' else '0' in
  let admitted =
    Int_map.bindings state.admitted
    |> List.map (fun (tag, votes) ->
           Printf.sprintf "%d{%s}" tag
             (Int_map.bindings votes
             |> List.map (fun (o, v) -> Printf.sprintf "%d%s" o (vote_fingerprint v))
             |> String.concat ","))
    |> String.concat ";"
  in
  Printf.sprintf "br:%d:%d:%d:%c:%s:%c:%d:%s:A{%s}:Q%d:%d" state.id state.round
    state.phase (bit state.x)
    (match state.output with None -> "_" | Some v -> String.make 1 (bit v))
    (bit state.input) state.resets
    (Reliable_broadcast.fingerprint vote_fingerprint state.rbc)
    admitted
    (List.length state.quarantine)
    (Dsim.Step.send_count ~n:state.n state.outbox_rev)

let pp_vote ppf v = Format.pp_print_string ppf (vote_fingerprint v)

let pp_message ppf = function
  | Reliable_broadcast.Initial { tag; payload } ->
      Format.fprintf ppf "init[%d]%a" tag pp_vote payload
  | Reliable_broadcast.Echo { origin; tag; payload } ->
      Format.fprintf ppf "echo[%d@%d]%a" tag origin pp_vote payload
  | Reliable_broadcast.Ready { origin; tag; payload } ->
      Format.fprintf ppf "ready[%d@%d]%a" tag origin pp_vote payload

let rewrite_vote vote bit =
  match vote with Val _ -> Val bit | Dec _ -> Dec bit

let protocol ?(validated = false) ?name ?(quorums = quorums) () =
  let name =
    match name with
    | Some n -> n
    | None -> if validated then "bracha-validated" else "bracha"
  in
  {
    Dsim.Protocol.name = name;
    init =
      (fun ~n ~t ~id ~input ->
        let rbc =
          Reliable_broadcast.create ~quorums ~n ~t ~self:id ~equal:vote_equal ()
        in
        init_with ~thresholds:(evaluate quorums ~n ~t) ~validated ~rbc ~n ~t
          ~id ~input ());
    outgoing;
    on_deliver;
    on_reset;
    output;
    observe;
    message_bit =
      (function
      | Reliable_broadcast.Initial { payload; _ }
      | Reliable_broadcast.Echo { payload; _ }
      | Reliable_broadcast.Ready { payload; _ } ->
          Some (bit_of_vote payload));
    message_round =
      (function
      | Reliable_broadcast.Initial { tag; _ }
      | Reliable_broadcast.Echo { tag; _ }
      | Reliable_broadcast.Ready { tag; _ } ->
          Some (round_of_tag tag));
    message_origin =
      (function
      | Reliable_broadcast.Initial _ -> None
      | Reliable_broadcast.Echo { origin; _ } | Reliable_broadcast.Ready { origin; _ } ->
          Some origin);
    rewrite_bit =
      (fun message bit ->
        match message with
        | Reliable_broadcast.Initial i ->
            Some (Reliable_broadcast.Initial { i with payload = rewrite_vote i.payload bit })
        | Reliable_broadcast.Echo e ->
            Some (Reliable_broadcast.Echo { e with payload = rewrite_vote e.payload bit })
        | Reliable_broadcast.Ready r ->
            Some (Reliable_broadcast.Ready { r with payload = rewrite_vote r.payload bit }));
    state_core;
    props = { Dsim.Protocol.forgetful = false; fully_communicative = false };
    pp_message;
  }

let quarantined_count state = List.length state.quarantine
