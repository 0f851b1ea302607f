module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type 'p msg =
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

(* The parameters every state derived from one [create] shares. *)
type 'p config = {
  n : int;
  fault_bound : int;
  self : int;
  code : 'p -> int;  (* matching payloads share a tally code *)
  thresholds : thresholds;
}

type 'p t = {
  config : 'p config;
  instances : 'p inst Int_map.t;  (* keyed by [key ~origin ~tag] *)
  started : Int_set.t;  (* tags this processor already originated *)
}

let create ~quorums ~n ~t ~self ~code () =
  let value = Quorums.value quorums ~n ~t in
  { config =
      { n; fault_bound = t; self; code;
        thresholds =
          { rbc_echo_quorum = value "rbc_echo_quorum";
            rbc_ready_resend = value "rbc_ready_resend";
            rbc_accept_quorum = value "rbc_accept_quorum" } };
    instances = Int_map.empty; started = Int_set.empty }

(* A fresh state sharing this one's parameters, evaluated thresholds
   included. *)
let reset_like t = { t with instances = Int_map.empty; started = Int_set.empty }

(* An instance's map key: origin in the high bits, tag in the low 32.
   On [in_range] keys are distinct per instance and their int order is
   the (origin, tag) order. *)
let tag_bits = 32
let tag_mask = (1 lsl tag_bits) - 1
let origin_bits = Sys.int_size - 1 - tag_bits
let in_range ~origin ~tag = origin lsr origin_bits = 0 && tag lsr tag_bits = 0
let key ~origin ~tag = (origin lsl tag_bits) lor tag

(* A uniform send is a single [Step.Broadcast] value: the engine
   stores it once and expands per-destination envelopes lazily, so
   emission is O(1) regardless of [n]. *)
let to_all message = [ Dsim.Step.Broadcast message ]

let instance t key =
  match Int_map.find key t.instances with
  | inst -> inst
  | exception Not_found -> inst_empty

let set_instance t key inst = { t with instances = Int_map.add key inst t.instances }

let broadcast t ~tag payload =
  if Int_set.mem tag t.started then (t, [])
  else
    let t = { t with started = Int_set.add tag t.started } in
    (t, to_all (Initial { tag; payload }))

(* Evaluate an instance's thresholds after new evidence for [payload]
   (tally code [code]) arrived, and store it: returns the new state,
   the [Ready] to send if one is due, and the acceptance if new. *)
let evaluate t key ~origin ~tag inst payload code =
  let thresholds = t.config.thresholds in
  let ready_now =
    (not inst.ready_sent)
    && (Tally.count_value inst.echoes code >= thresholds.rbc_echo_quorum
       || Tally.count_value inst.readies code >= thresholds.rbc_ready_resend)
  in
  let inst = if ready_now then { inst with ready_sent = true } else inst in
  let sends = if ready_now then to_all (Ready { origin; tag; payload }) else [] in
  if Option.is_none inst.accepted
     && Tally.count_value inst.readies code >= thresholds.rbc_accept_quorum
  then (set_instance t key { inst with accepted = Some payload }, sends, [ (origin, payload) ])
  else (set_instance t key inst, sends, [])

let receive t ~src message =
  match message with
  | Initial { tag; payload } ->
      (* Only the claimed origin's own channel is trusted for Initial:
         the sender *is* the origin (dedicated channels). *)
      if not (in_range ~origin:src ~tag) then (t, [], [])
      else
        let key = key ~origin:src ~tag in
        let inst = instance t key in
        if inst.echo_sent then (t, [], [])
        else
          ( set_instance t key { inst with echo_sent = true },
            to_all (Echo { origin = src; tag; payload }),
            [] )
  | Echo { origin; tag; payload } ->
      if not (in_range ~origin ~tag) then (t, [], [])
      else
        let key = key ~origin ~tag in
        let inst = instance t key in
        if Tally.mem inst.echoes src then (t, [], [])
        else
          let code = t.config.code payload in
          evaluate t key ~origin ~tag
            { inst with echoes = Tally.add inst.echoes ~src code }
            payload code
  | Ready { origin; tag; payload } ->
      if not (in_range ~origin ~tag) then (t, [], [])
      else
        let key = key ~origin ~tag in
        let inst = instance t key in
        if Tally.mem inst.readies src then (t, [], [])
        else
          let code = t.config.code payload in
          evaluate t key ~origin ~tag
            { inst with readies = Tally.add inst.readies ~src code }
            payload code

(* [(origin,tag)e<echoes>r<readies>[E][R][A<payload>]] per instance,
   ';'-separated in key order, written into one local buffer (callers
   are state cores, which may not pass their own buffer on). *)
let fingerprint render t =
  let b = Buffer.create 64 in
  let int i = Buffer.add_string b (string_of_int i) in
  Int_map.iter
    (fun key inst ->
      if Buffer.length b > 0 then Buffer.add_char b ';';
      Buffer.add_char b '(';
      int (key lsr tag_bits);
      Buffer.add_char b ',';
      int (key land tag_mask);
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
