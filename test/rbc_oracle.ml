(* Reliable broadcast as it stood before [Protocols.Reliable_broadcast]
   moved to one int-keyed instance map and a shared config record, kept
   verbatim (tuple-keyed [Key_map], eight-field state, [evaluate]
   returning through a ref and a tuple) as the oracle of the
   differential test in [test_rbc.ml]: both must give equal
   fingerprints, sends and acceptances after every call.  Only two
   lines differ from that module: [open Protocols], and [msg] re-exports
   the library's message type so both sides' sends compare directly. *)

open Protocols

module Int_set = Set.Make (Int)

module Key = struct
  type t = int * int (* origin, tag *)

  let compare (a_origin, a_tag) (b_origin, b_tag) =
    match Int.compare a_origin b_origin with
    | 0 -> Int.compare a_tag b_tag
    | c -> c
end

module Key_map = Map.Make (Key)

type 'p msg = 'p Reliable_broadcast.msg =
  | Initial of { tag : int; payload : 'p }
  | Echo of { origin : int; tag : int; payload : 'p }
  | Ready of { origin : int; tag : int; payload : 'p }

type 'p inst = {
  echoes : Tally.t;  (* one payload code per echoing sender *)
  readies : Tally.t;
  echo_sent : bool;
  ready_sent : bool;
  accepted : 'p option;
}

let inst_empty =
  { echoes = Tally.empty; readies = Tally.empty; echo_sent = false;
    ready_sent = false; accepted = None }

let quorums =
  {
    Quorums.name = "rbc";
    family = "rbc";
    pos = __POS__;
    resilience = Symexpr.(div (sub n_ (int_ 1)) 3);
    thresholds =
      Symexpr.
        [
          ("rbc_echo_quorum", add (div (add n_ t_) 2) (int_ 1));
          ("rbc_ready_resend", add t_ (int_ 1));
          ("rbc_accept_quorum", add (scale 2 t_) (int_ 1));
        ];
  }

(* The declared thresholds, evaluated once per [create]. *)
type thresholds = {
  rbc_echo_quorum : int;
  rbc_ready_resend : int;
  rbc_accept_quorum : int;
}

type 'p t = {
  n : int;
  fault_bound : int;
  self : int;
  code : 'p -> int;  (* matching payloads share a tally code *)
  thresholds : thresholds;
  instances : 'p inst Key_map.t;
  started : Int_set.t;  (* tags this processor already originated *)
}

let create ~quorums ~n ~t ~self ~code () =
  let value = Quorums.value quorums ~n ~t in
  { n; fault_bound = t; self; code;
    thresholds =
      { rbc_echo_quorum = value "rbc_echo_quorum";
        rbc_ready_resend = value "rbc_ready_resend";
        rbc_accept_quorum = value "rbc_accept_quorum" };
    instances = Key_map.empty; started = Int_set.empty }

(* A fresh state sharing this one's parameters, evaluated thresholds
   included. *)
let reset_like t = { t with instances = Key_map.empty; started = Int_set.empty }

(* A uniform send is a single [Step.Broadcast] value: the engine
   stores it once and expands per-destination envelopes lazily, so
   emission is O(1) regardless of [n]. *)
let to_all _t message = [ Dsim.Step.Broadcast message ]

let instance t key = Option.value ~default:inst_empty (Key_map.find_opt key t.instances)

let set_instance t key inst = { t with instances = Key_map.add key inst t.instances }

let broadcast t ~tag payload =
  if Int_set.mem tag t.started then (t, [])
  else
    let t = { t with started = Int_set.add tag t.started } in
    (t, to_all t (Initial { tag; payload }))

(* Evaluate an instance's thresholds after new evidence for [payload]
   (tally code [code]) arrived; returns the updated instance, messages
   to send, and the acceptance if new. *)
let evaluate t key inst payload code =
  let origin, tag = key in
  let sends = ref [] in
  let inst =
    if (not inst.ready_sent)
       && (Tally.count_value inst.echoes code >= t.thresholds.rbc_echo_quorum
          || Tally.count_value inst.readies code >= t.thresholds.rbc_ready_resend)
    then begin
      sends := to_all t (Ready { origin; tag; payload });
      { inst with ready_sent = true }
    end
    else inst
  in
  let accepted_now =
    if Option.is_none inst.accepted
       && Tally.count_value inst.readies code >= t.thresholds.rbc_accept_quorum
    then Some payload
    else None
  in
  let inst =
    match accepted_now with None -> inst | Some p -> { inst with accepted = Some p }
  in
  (inst, !sends, accepted_now)

let receive t ~src message =
  match message with
  | Initial { tag; payload } ->
      (* Only the claimed origin's own channel is trusted for Initial:
         the sender *is* the origin (dedicated channels). *)
      let key = (src, tag) in
      let inst = instance t key in
      if inst.echo_sent then (set_instance t key inst, [], [])
      else
        let inst = { inst with echo_sent = true } in
        (set_instance t key inst, to_all t (Echo { origin = src; tag; payload }), [])
  | Echo { origin; tag; payload } ->
      let key = (origin, tag) in
      let inst = instance t key in
      if Tally.mem inst.echoes src then (t, [], [])
      else
        let code = t.code payload in
        let inst = { inst with echoes = Tally.add inst.echoes ~src code } in
        let inst, sends, accepted_now = evaluate t key inst payload code in
        ( set_instance t key inst,
          sends,
          match accepted_now with None -> [] | Some p -> [ (origin, p) ] )
  | Ready { origin; tag; payload } ->
      let key = (origin, tag) in
      let inst = instance t key in
      if Tally.mem inst.readies src then (t, [], [])
      else
        let code = t.code payload in
        let inst = { inst with readies = Tally.add inst.readies ~src code } in
        let inst, sends, accepted_now = evaluate t key inst payload code in
        ( set_instance t key inst,
          sends,
          match accepted_now with None -> [] | Some p -> [ (origin, p) ] )

(* [(origin,tag)e<echoes>r<readies>[E][R][A<payload>]] per instance,
   ';'-separated in key order, written into one local buffer (callers
   are state cores, which may not pass their own buffer on). *)
let fingerprint render t =
  let b = Buffer.create 64 in
  let int i = Buffer.add_string b (string_of_int i) in
  Key_map.iter
    (fun (origin, tag) inst ->
      if Buffer.length b > 0 then Buffer.add_char b ';';
      Buffer.add_char b '(';
      int origin;
      Buffer.add_char b ',';
      int tag;
      Buffer.add_string b ")e";
      int (Tally.count inst.echoes);
      Buffer.add_char b 'r';
      int (Tally.count inst.readies);
      if inst.echo_sent then Buffer.add_char b 'E';
      if inst.ready_sent then Buffer.add_char b 'R';
      match inst.accepted with
      | None -> ()
      | Some p ->
          Buffer.add_char b 'A';
          Buffer.add_string b (render p))
    t.instances;
  Buffer.contents b

let add_message add_payload b message =
  let int i = Buffer.add_string b (string_of_int i) in
  let relayed head ~origin ~tag =
    Buffer.add_string b head;
    int tag;
    Buffer.add_char b '@';
    int origin
  in
  let payload =
    match message with
    | Initial { tag; payload } ->
        Buffer.add_string b "init[";
        int tag;
        payload
    | Echo { origin; tag; payload } ->
        relayed "echo[" ~origin ~tag;
        payload
    | Ready { origin; tag; payload } ->
        relayed "ready[" ~origin ~tag;
        payload
  in
  Buffer.add_char b ']';
  add_payload b payload
