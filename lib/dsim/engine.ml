type ('s, 'm) t = {
  protocol : ('s, 'm) Protocol.t;
  n : int;
  fault_bound : int;
  inputs : bool array;
  states : 's array;
  mailbox : 'm Mailbox.t;
  crashed : bool array;
  reset_counts : int array;
  receive_depths : int array;
  rngs : Prng.Stream.t array;
  track_deliveries : bool;
      (* when off (the default), the per-delivery conditioning log below
         is not recorded and sweeps skip its allocations entirely *)
  recent_deliveries : (int * 'm) list array;
      (* per processor, reverse-chronological (src, payload) pairs for
         messages delivered since its last message-emitting send — the
         conditioning data of Definition 15 (forgetfulness).  Rendered
         to "src:payload" strings lazily, in [recent_deliveries]. *)
  mutable next_msg_id : int;
  mutable step_index : int;
  mutable window_index : int;
  trace : Trace.t;
}

let init ~protocol ~n ~fault_bound ~inputs ~seed ?(record_events = false)
    ?(track_deliveries = false) () =
  if Array.length inputs <> n then invalid_arg "Engine.init: |inputs| <> n";
  if n <= 0 then invalid_arg "Engine.init: n must be positive";
  if fault_bound < 0 || fault_bound >= n then
    invalid_arg "Engine.init: fault bound out of range";
  let root = Prng.Stream.root seed in
  let rngs = Array.init n (fun i -> Prng.Stream.derive root i) in
  let states =
    Array.init n (fun i -> protocol.Protocol.init ~n ~t:fault_bound ~id:i ~input:inputs.(i))
  in
  {
    protocol;
    n;
    fault_bound;
    inputs = Array.copy inputs;
    states;
    mailbox = Mailbox.create ();
    crashed = Array.make n false;
    reset_counts = Array.make n 0;
    receive_depths = Array.make n 0;
    rngs;
    track_deliveries;
    recent_deliveries = Array.make n [];
    next_msg_id = 0;
    step_index = 0;
    window_index = 0;
    trace = Trace.create ~record_events ();
  }

let copy t =
  {
    t with
    inputs = Array.copy t.inputs;
    states = Array.copy t.states;
    mailbox = Mailbox.copy t.mailbox;
    crashed = Array.copy t.crashed;
    reset_counts = Array.copy t.reset_counts;
    receive_depths = Array.copy t.receive_depths;
    rngs = Array.map Prng.Stream.copy t.rngs;
    recent_deliveries = Array.copy t.recent_deliveries;
    trace = Trace.copy t.trace;
  }

let reseed t stream =
  Array.iteri (fun i _ -> t.rngs.(i) <- Prng.Stream.derive stream i) t.rngs

let reseed_shared t stream =
  Array.iteri (fun i _ -> t.rngs.(i) <- Prng.Stream.copy stream) t.rngs

let n t = t.n
let fault_bound t = t.fault_bound
let protocol t = t.protocol
let state t p = t.states.(p)
let observe t p = t.protocol.Protocol.observe t.states.(p)
let observations t = Array.init t.n (observe t)
let output t p = t.protocol.Protocol.output t.states.(p)
let crashed t p = t.crashed.(p)

let crashed_count t =
  Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.crashed

let reset_count t p = t.reset_counts.(p)
let inputs t = t.inputs
let mailbox t = t.mailbox
let step_index t = t.step_index
let window_index t = t.window_index
let trace t = t.trace
let receive_depth t p = t.receive_depths.(p)

let recent_deliveries t p =
  let b = Buffer.create 32 in
  List.map
    (fun (src, payload) ->
      Buffer.clear b;
      Buffer.add_string b (string_of_int src);
      Buffer.add_char b ':';
      t.protocol.Protocol.add_message b payload;
      Buffer.contents b)
    t.recent_deliveries.(p)
let max_chain_depth t = Array.fold_left max 0 t.receive_depths

let decided_values t =
  let rec collect p acc =
    if p < 0 then acc
    else
      match output t p with
      | Some v -> collect (p - 1) ((p, v) :: acc)
      | None -> collect (p - 1) acc
  in
  collect (t.n - 1) []

(* The stop checks (run after every step or window) and the conflict
   check (run on every model-checker child) scan the outputs in place:
   no list, no array, no closure.  A scan rather than a decided count,
   because [Protocol.t] does not promise that outputs are write-once. *)
let rec all_decided_from t p =
  p >= t.n || ((t.crashed.(p) || Option.is_some (output t p)) && all_decided_from t (p + 1))

let all_decided t = all_decided_from t 0

let rec some_decided_from t p =
  p < t.n && (Option.is_some (output t p) || some_decided_from t (p + 1))

let some_decided t = some_decided_from t 0

let rec conflict_from t p ~zero ~one =
  (zero && one)
  || p < t.n
     &&
     match output t p with
     | Some true -> conflict_from t (p + 1) ~zero ~one:true
     | Some false -> conflict_from t (p + 1) ~zero:true ~one
     | None -> conflict_from t (p + 1) ~zero ~one

let decision_conflict t = conflict_from t 0 ~zero:false ~one:false

let state_cores t = Array.map t.protocol.Protocol.state_core t.states

let config_fingerprint b t =
  let add_int i = Buffer.add_string b (string_of_int i) in
  let add_message = t.protocol.Protocol.add_message b in
  for p = 0 to t.n - 1 do
    Buffer.add_string b (t.protocol.Protocol.state_core t.states.(p));
    Buffer.add_char b (if t.crashed.(p) then 'C' else '.');
    add_int t.reset_counts.(p);
    Buffer.add_char b '~';
    Prng.Stream.add_fingerprint b t.rngs.(p);
    (* Pending outbox: [outgoing] is pure (lint R8), so peeking at the
       sends the current state would emit observes outbox content
       without mutating the configuration. *)
    let _, sends = t.protocol.Protocol.outgoing t.states.(p) in
    List.iter
      (fun (Step.Broadcast payload) ->
        Buffer.add_string b ">b:";
        add_message payload)
      sends;
    Buffer.add_char b '|'
  done;
  Mailbox.iter_range t.mailbox ~from:0 ~til:max_int ()
    (fun () ~id:_ ~src ~dst ~depth:_ payload ->
      Buffer.add_char b 'm';
      add_int src;
      Buffer.add_char b '>';
      add_int dst;
      Buffer.add_char b ':';
      add_message payload;
      Buffer.add_char b ';')

(* Record a decision event when a state transition wrote the output bit. *)
let note_decision t p before_output =
  match (before_output, output t p) with
  | None, Some value ->
      Trace.record_decided t.trace ~pid:p ~value ~step:t.step_index
        ~window:t.window_index ~chain_depth:t.receive_depths.(p)
  | _, _ -> ()

(* Enqueue one send value: O(1) regardless of fan-out.  A broadcast
   reserves n consecutive ids (id = first + dst, the order an eager
   expansion would assign) but stores the payload once in the mailbox. *)
let enqueue_send t p depth (Step.Broadcast payload) =
  let first = t.next_msg_id in
  t.next_msg_id <- first + t.n;
  Mailbox.add_broadcast t.mailbox ~first ~count:t.n ~src:p ~payload ~depth;
  Trace.record_broadcast t.trace ~src:p ~first ~count:t.n ~depth

let rec enqueue_sends t p depth = function
  | [] -> ()
  | send :: rest ->
      enqueue_send t p depth send;
      enqueue_sends t p depth rest

let do_send t p =
  if not t.crashed.(p) then begin
    let state, sends = t.protocol.Protocol.outgoing t.states.(p) in
    t.states.(p) <- state;
    (* A sending step that actually emits messages is a "sending event"
       in the sense of Definition 15: it completes the response to the
       deliveries accumulated so far. *)
    if t.track_deliveries && not (List.is_empty sends) then
      t.recent_deliveries.(p) <- [];
    enqueue_sends t p (t.receive_depths.(p) + 1) sends
  end

(* Deliver one envelope the mailbox has just removed, given its fields.
   This is the visitor of both removal paths — {!Mailbox.take_with} for
   a [Step.Deliver], {!Mailbox.drain_for} for the window walks — and it
   gets the engine as the walk's context, so no closure is built per
   delivery. *)
let deliver_fields t ~id ~src ~dst ~depth payload =
  if t.crashed.(dst) then Trace.record_dropped t.trace ~msg_id:id
  else begin
    let before = output t dst in
    t.states.(dst) <- t.protocol.Protocol.on_deliver t.states.(dst) ~src payload t.rngs.(dst);
    t.receive_depths.(dst) <- Int.max t.receive_depths.(dst) depth;
    if t.track_deliveries then
      t.recent_deliveries.(dst) <- (src, payload) :: t.recent_deliveries.(dst);
    Trace.record_delivered t.trace ~src ~dst ~msg_id:id ~depth;
    note_decision t dst before
  end

let drop_fields t ~id ~src:_ ~dst:_ ~depth:_ _ = Trace.record_dropped t.trace ~msg_id:id

let do_deliver t id =
  if not (Mailbox.take_with t.mailbox id t deliver_fields) then
    invalid_arg (Printf.sprintf "Engine: deliver of unknown message #%d" id)

let do_drop t id =
  if not (Mailbox.take_with t.mailbox id t drop_fields) then
    invalid_arg (Printf.sprintf "Engine: drop of unknown message #%d" id)

(* A delivery step for an envelope a drain walk has just removed: the
   [Step.Deliver] branch of [apply] without the re-probe. *)
let deliver_step t ~id ~src ~dst ~depth payload =
  t.step_index <- t.step_index + 1;
  deliver_fields t ~id ~src ~dst ~depth payload

(* The [Step.Drop] branch of [apply] for an envelope the drop sweep is
   visiting, without building the step. *)
let drop_step t ~id ~src:_ ~dst:_ ~depth:_ _ =
  t.step_index <- t.step_index + 1;
  do_drop t id

let do_reset t p =
  if not t.crashed.(p) then begin
    t.states.(p) <- t.protocol.Protocol.on_reset t.states.(p);
    t.reset_counts.(p) <- t.reset_counts.(p) + 1;
    if t.track_deliveries then t.recent_deliveries.(p) <- [];
    Trace.record_reset t.trace ~pid:p
  end

let do_crash t p =
  if not t.crashed.(p) then begin
    t.crashed.(p) <- true;
    Trace.record_crash t.trace ~pid:p
  end

let apply t step =
  t.step_index <- t.step_index + 1;
  match step with
  | Step.Send p -> do_send t p
  | Step.Deliver id -> do_deliver t id
  | Step.Drop id -> do_drop t id
  | Step.Reset p -> do_reset t p
  | Step.Crash p -> do_crash t p
  | Step.Corrupt (id, payload) ->
      if not (Mailbox.replace_payload t.mailbox id payload) then
        invalid_arg (Printf.sprintf "Engine: corrupt of unknown message #%d" id)

let apply_window t ?tamper window =
  let fresh_from = t.next_msg_id in
  (* Phase 1: all processors take sending steps. *)
  for p = 0 to t.n - 1 do
    t.step_index <- t.step_index + 1;
    do_send t p
  done;
  let fresh_to = t.next_msg_id in
  (* In-transit corruption: the adversary may rewrite this window's
     fresh messages after they are sent and before any is delivered. *)
  (match tamper with None -> () | Some f -> f ~from_id:fresh_from ~til_id:fresh_to);
  (* Phase 2: each processor i receives the just-sent messages from S_i,
     in ascending (sender, id) order — "some fixed order".  One
     [Mailbox.drain_for] walk per processor visits its envelope in each
     broadcast entry and removes each delivered one as it goes. *)
  let allow = Window.allows window in
  for dst = 0 to t.n - 1 do
    Mailbox.drain_for t.mailbox ~dst ~from:fresh_from ~til:fresh_to ~allow t deliver_step
  done;
  (* Undelivered fresh messages can never legally be delivered by a
     later window, so clear them out: one ascending walk over the
     window's own id range (near-free after full-delivery windows,
     where nothing fresh is left pending). *)
  Mailbox.iter_range t.mailbox ~from:fresh_from ~til:fresh_to t drop_step;
  (* Phase 3: at most t resetting steps. *)
  List.iter
    (fun p ->
      t.step_index <- t.step_index + 1;
      do_reset t p)
    (Window.resets window);
  t.window_index <- t.window_index + 1;
  Trace.record_window_closed t.trace ~index:t.window_index

let deliver_all_pending t ~dst =
  Mailbox.drain_for t.mailbox ~dst ~from:min_int ~til:max_int
    ~allow:(fun ~dst:_ ~src:_ -> true)
    t deliver_step
