module Int_map = Map.Make (Int)

type vote = Val of bool | Dec of bool
type message = vote Reliable_broadcast.msg

let tag_of ~round ~phase = (round * 4) + phase
let round_of_tag tag = tag / 4
let phase_of_tag tag = tag mod 4

(* Tally codes: [Val false], [Val true], [Dec false], [Dec true] are
   0 to 3. *)
let val_code bit = Bool.to_int bit
let dec_code bit = 2 + Bool.to_int bit
let vote_code = function Val bit -> val_code bit | Dec bit -> dec_code bit

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

(* The fields that change only when a payload is admitted or a phase
   ends.  Most deliveries admit nothing, and copy only [state]. *)
type core = {
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
  validated : bool;
  admitted : Tally.t Int_map.t;  (* tag -> admitted votes, by origin *)
  quarantine : (int * int * vote) list;  (* (tag, origin, vote), unjustified *)
}

(* The fields every delivery writes. *)
type state = {
  rbc : vote Reliable_broadcast.t;
  outbox_rev : message Dsim.Step.send list;  (* pending sends, newest first *)
  core : core;
}

let bit_of_vote = function Val b | Dec b -> b

let admitted_for core tag =
  match Int_map.find tag core.admitted with
  | tally -> tally
  | exception Not_found -> Tally.empty

(* Admitted votes for [bit], whether plain or decision candidates. *)
let count_with_bit tally bit =
  Tally.count_value tally (val_code bit) + Tally.count_value tally (dec_code bit)

let admitted_count_with_bit core tag bit = count_with_bit (admitted_for core tag) bit

(* Bracha's validation filter, monotone form: can this vote have been
   produced by a correct processor, given the prior-phase votes this
   validator has itself admitted so far? *)
let justified core ~tag ~vote =
  let round = round_of_tag tag and phase = phase_of_tag tag in
  match phase with
  | 1 -> true (* round-r preferences can always come from a coin *)
  | 2 ->
      (* The sender saw an (n - t)-subset of phase-1 votes with
         majority v: needs at least floor((n-t)/2)+1 such votes. *)
      let v = bit_of_vote vote in
      let needed = ((core.n - core.fault_bound) / 2) + 1 in
      admitted_count_with_bit core (tag_of ~round ~phase:1) v >= needed
  | 3 -> (
      match vote with
      | Dec v ->
          (* The sender saw more than n/2 phase-2 votes for v. *)
          let needed = (core.n / 2) + 1 in
          admitted_count_with_bit core (tag_of ~round ~phase:2) v >= needed
      | Val _ -> true)
  | _ -> false

(* RBC accepts at most one payload per (origin, tag), and the tally
   keeps the first vote per origin regardless. *)
let admit core ~tag ~origin ~vote =
  let tally = Tally.add (admitted_for core tag) ~src:origin (vote_code vote) in
  { core with admitted = Int_map.add tag tally core.admitted }

(* Route a fresh RBC acceptance through the filter, then re-examine the
   quarantine until no more votes become justified (justification is
   monotone in the admitted sets, so this terminates). *)
(* The recursion drains the quarantine list; justification is
   monotone, so each quarantined vote is re-examined at most once per
   admission, amortized O(1) per delivered message. *)
(* lint: allow R15 *)
let rec ingest core ~tag ~origin ~vote =
  if (not core.validated) || justified core ~tag ~vote then
    let core = admit core ~tag ~origin ~vote in
    drain_quarantine core
  else { core with quarantine = (tag, origin, vote) :: core.quarantine }

and drain_quarantine core =
  (* The quarantine holds only accepted-but-unjustified votes, i.e.
     fabrications a Byzantine origin pushed through RBC — at most t per
     tag — and justification conditions move as admitted sets grow, so
     the monotone drain re-examines the (short) list rather than
     keeping counters. *)
  let ready, still =
    (* lint: allow R13 — short unjustified-vote list, not a quorum map *)
    List.partition (fun (tag, _, vote) -> justified core ~tag ~vote) core.quarantine
  in
  match ready with
  | [] -> core
  | _ ->
      let core = { core with quarantine = still } in
      (* lint: allow R13 — drains each quarantined vote exactly once *)
      List.fold_left
        (fun c (tag, origin, vote) -> ingest c ~tag ~origin ~vote)
        core ready

(* Broadcast [payload] for [core]'s (round, phase), [core] becoming
   the new state's. *)
let rbc_broadcast state core payload =
  let tag = tag_of ~round:core.round ~phase:core.phase in
  let rbc, sends = Reliable_broadcast.broadcast state.rbc ~tag payload in
  (* Our own broadcast is trivially justified for us.  [sends] is at
     most one [Step.Broadcast] value, so queueing it is O(1).
     (* lint: allow R12 *) *)
  { rbc; outbox_rev = List.rev_append sends state.outbox_rev; core }

(* Process a completed phase quorum.  [tally] holds the admitted votes
   for the current (round, phase) tag. *)
let finish_phase state tally rng =
  let core = state.core in
  match core.phase with
  | 1 ->
      let ones = count_with_bit tally true in
      let zeros = count_with_bit tally false in
      let x = if ones > zeros then true else false in
      rbc_broadcast state { core with x; phase = 2 } (Val x)
  | 2 ->
      let half = core.n / 2 in
      let ones = count_with_bit tally true in
      let zeros = count_with_bit tally false in
      let payload =
        if ones > half then Dec true
        else if zeros > half then Dec false
        else Val core.x
      in
      rbc_broadcast state { core with phase = 3 } payload
  | 3 ->
      let dec_true = Tally.count_value tally (dec_code true) in
      let dec_false = Tally.count_value tally (dec_code false) in
      let decide_at = core.thresholds.decide_at in
      let adopt_at = core.thresholds.adopt_at in
      let output =
        match core.output with
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
      rbc_broadcast state { core with output; x; round = core.round + 1; phase = 1 } (Val x)
  | _ -> assert false

let rec advance state rng =
  let core = state.core in
  let tally = admitted_for core (tag_of ~round:core.round ~phase:core.phase) in
  if Tally.count tally >= core.thresholds.quorum then
    advance (finish_phase state tally rng) rng
  else state

let init_with ~thresholds ~validated ~rbc ~n ~t ~id ~input () =
  let core =
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
      validated;
      admitted = Int_map.empty;
      quarantine = [];
    }
  in
  rbc_broadcast { rbc; outbox_rev = []; core } core (Val input)

(* One reversal per drain of the (short) send list: broadcasts are
   single [Step.Broadcast] values, not n envelopes.
   (* lint: allow R12 *) *)
let outgoing state = ({ state with outbox_rev = [] }, List.rev state.outbox_rev)

let on_deliver state ~src message rng =
  let rbc, sends, accepted = Reliable_broadcast.receive state.rbc ~src message in
  (* [sends] is at most one [Step.Broadcast] value: O(1) to queue.
     (* lint: allow R12 *) *)
  let outbox_rev = List.rev_append sends state.outbox_rev in
  match accepted with
  | [] when state.core.thresholds.quorum > 0 ->
      (* Nothing admitted, so no phase quorum can have completed: every
         state [init], [on_reset] and [on_deliver] return awaits one
         that its admitted votes do not meet (unless the quorum is 0,
         which the empty tally meets). *)
      { rbc; outbox_rev; core = state.core }
  | _ ->
      let tag =
        match message with
        | Reliable_broadcast.Initial { tag; _ }
        | Reliable_broadcast.Echo { tag; _ }
        | Reliable_broadcast.Ready { tag; _ } ->
            tag
      in
      let core =
        (* lint: allow R13 — [accepted] has at most one element per receive *)
        List.fold_left
          (fun c (origin, vote) -> ingest c ~tag ~origin ~vote)
          state.core accepted
      in
      advance { rbc; outbox_rev; core } rng

(* Like Ben-Or, Bracha has no re-join procedure: restart from input.
   The evaluated thresholds carry over, and [reset_like] keeps the RBC
   parameters while clearing its instances. *)
let on_reset state =
  let core = state.core in
  let restarted =
    init_with ~thresholds:core.thresholds ~validated:core.validated
      ~rbc:(Reliable_broadcast.reset_like state.rbc) ~n:core.n
      ~t:core.fault_bound ~id:core.id ~input:core.input ()
  in
  { restarted with
    core = { restarted.core with output = core.output; resets = core.resets + 1 } }

let output state = state.core.output

let observe { core; _ } =
  Dsim.Obs.make ~id:core.id ~round:core.round ~estimate:(Dsim.Obs.some_bit core.x)
    ~output:core.output ~input:core.input ~resets:core.resets ~phase:core.phase

let code_fingerprint = function 0 -> "V0" | 1 -> "V1" | 2 -> "D0" | _ -> "D1"
let vote_fingerprint vote = code_fingerprint (vote_code vote)

(* [br:id:round:phase:x:output:input:resets:<rbc>:A{<admitted>}:Q<quarantined>:<outbox>],
   where <admitted> is [tag{<origin><vote>,...};...] in ascending keys. *)
let state_core state =
  let core = state.core in
  let b = Buffer.create 256 in
  let int i = Buffer.add_string b (string_of_int i) in
  let field_int i = Buffer.add_char b ':'; int i in
  let field_char c = Buffer.add_char b ':'; Buffer.add_char b c in
  let bit v = if v then '1' else '0' in
  Buffer.add_string b "br";
  field_int core.id;
  field_int core.round;
  field_int core.phase;
  field_char (bit core.x);
  field_char (match core.output with None -> '_' | Some v -> bit v);
  field_char (bit core.input);
  field_int core.resets;
  Buffer.add_char b ':';
  Buffer.add_string b (Reliable_broadcast.fingerprint vote_fingerprint state.rbc);
  Buffer.add_string b ":A{";
  (* A separator goes before every entry but a map's first: the one
     written while the buffer still ends at the map's start mark. *)
  let tags_start = Buffer.length b in
  Int_map.iter
    (fun tag votes ->
      if Buffer.length b > tags_start then Buffer.add_char b ';';
      int tag;
      Buffer.add_char b '{';
      let votes_start = Buffer.length b in
      Tally.iter
        (fun origin code ->
          if Buffer.length b > votes_start then Buffer.add_char b ',';
          int origin;
          Buffer.add_string b (code_fingerprint code))
        votes;
      Buffer.add_char b '}')
    core.admitted;
  Buffer.add_string b "}:Q";
  int (List.length core.quarantine);
  field_int (Dsim.Step.send_count ~n:core.n state.outbox_rev);
  Buffer.contents b

let add_message =
  Reliable_broadcast.add_message (fun b vote ->
      Buffer.add_string b (vote_fingerprint vote))

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
          Reliable_broadcast.create ~quorums ~n ~t ~self:id ~code:vote_code ()
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
    add_message;
  }

let quarantined_count state = List.length state.core.quarantine
