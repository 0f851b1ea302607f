type message = bool Reliable_broadcast.msg

type state = {
  id : int;
  n : int;
  origin : int;
  input : bool;
  output : bool option;
  resets : int;
  rbc : bool Reliable_broadcast.t;
  outbox_rev : message Dsim.Step.send list;  (* pending sends, newest first *)
}

let tag = 0

let start state =
  if state.id = state.origin then
    let rbc, sends = Reliable_broadcast.broadcast state.rbc ~tag state.input in
    (* At most one [Step.Broadcast] value: O(1) to queue.
       (* lint: allow R12 *) *)
    { state with rbc; outbox_rev = List.rev_append sends state.outbox_rev }
  else state

let init_with ~quorums ~origin ~n ~t ~id ~input () =
  start
    {
      id;
      n;
      origin;
      input;
      output = None;
      resets = 0;
      rbc =
        Reliable_broadcast.create ~quorums ~n ~t ~self:id ~code:Bool.to_int ();
      outbox_rev = [];
    }

(* One reversal per drain of the (short) send list.
   (* lint: allow R12 *) *)
let outgoing state = ({ state with outbox_rev = [] }, List.rev state.outbox_rev)

let on_deliver state ~src message _rng =
  let rbc, sends, accepted = Reliable_broadcast.receive state.rbc ~src message in
  (* [sends] is at most one [Step.Broadcast] value: O(1) to queue.
     (* lint: allow R12 *) *)
  let state = { state with rbc; outbox_rev = List.rev_append sends state.outbox_rev } in
  (* Decide on the origin's instance, write-once.  [accepted] carries
     at most one acceptance per receive, so this scan is O(1). *)
  match
    if Option.is_some state.output then None
    else
      (* lint: allow R13 *)
      List.find_map
        (fun (origin, payload) ->
          if origin = state.origin then Some payload else None)
        accepted
  with
  | None -> state
  | Some payload -> { state with output = Some payload }

(* A reset processor restarts its RBC bookkeeping (keeping the
   evaluated thresholds); the origin re-broadcasts.  The output bit
   survives, per the model. *)
let on_reset state =
  start
    {
      state with
      rbc = Reliable_broadcast.reset_like state.rbc;
      outbox_rev = [];
      resets = state.resets + 1;
    }

let output state = state.output

let observe state =
  Dsim.Obs.make ~id:state.id ~round:0
    ~estimate:state.output ~output:state.output ~input:state.input
    ~resets:state.resets ~phase:0

let bit_string v = if v then "1" else "0"

(* [rb:id:origin:output:input:resets:<rbc>:<outbox>]. *)
let state_core state =
  let b = Buffer.create 64 in
  let int i = Buffer.add_string b (string_of_int i) in
  let field_int i = Buffer.add_char b ':'; int i in
  Buffer.add_string b "rb";
  field_int state.id;
  field_int state.origin;
  Buffer.add_char b ':';
  Buffer.add_string b (match state.output with None -> "_" | Some v -> bit_string v);
  Buffer.add_char b ':';
  Buffer.add_string b (bit_string state.input);
  field_int state.resets;
  Buffer.add_char b ':';
  Buffer.add_string b (Reliable_broadcast.fingerprint bit_string state.rbc);
  field_int (Dsim.Step.send_count ~n:state.n state.outbox_rev);
  Buffer.contents b

let add_message =
  Reliable_broadcast.add_message (fun b v -> Buffer.add_string b (bit_string v))

let protocol ?(name = "rbc-once") ?(origin = 0)
    ?(quorums = Reliable_broadcast.quorums) () =
  {
    Dsim.Protocol.name;
    init =
      (fun ~n ~t ~id ~input ->
        if origin < 0 || origin >= n then
          Protocol_error.raise_error
            (Origin_out_of_range { who = "Rbc_once.protocol"; origin; n });
        init_with ~quorums ~origin ~n ~t ~id ~input ());
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
          Some payload);
    message_round = (fun _ -> Some 0);
    message_origin =
      (function
      | Reliable_broadcast.Initial _ -> None
      | Reliable_broadcast.Echo { origin; _ }
      | Reliable_broadcast.Ready { origin; _ } ->
          Some origin);
    rewrite_bit =
      (fun message bit ->
        match message with
        | Reliable_broadcast.Initial i ->
            Some (Reliable_broadcast.Initial { i with payload = bit })
        | Reliable_broadcast.Echo e ->
            Some (Reliable_broadcast.Echo { e with payload = bit })
        | Reliable_broadcast.Ready r ->
            Some (Reliable_broadcast.Ready { r with payload = bit }));
    state_core;
    props = { Dsim.Protocol.forgetful = false; fully_communicative = false };
    add_message;
  }
