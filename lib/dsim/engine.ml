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
  List.map
    (fun (src, payload) ->
      Format.asprintf "%d:%a" src t.protocol.Protocol.pp_message payload)
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

let all_decided t =
  let alive_undecided p = (not t.crashed.(p)) && Option.is_none (output t p) in
  not (Array.exists alive_undecided (Array.init t.n (fun i -> i)))

let some_decided t = not (List.is_empty (decided_values t))

let decision_conflict t =
  let values = List.map snd (decided_values t) in
  List.mem true values && List.mem false values

let state_cores t = Array.map t.protocol.Protocol.state_core t.states

let config_fingerprint t =
  let b = Buffer.create (64 * t.n) in
  let pp_msg m = Format.asprintf "%a" t.protocol.Protocol.pp_message m in
  for p = 0 to t.n - 1 do
    Buffer.add_string b (t.protocol.Protocol.state_core t.states.(p));
    Buffer.add_char b (if t.crashed.(p) then 'C' else '.');
    Buffer.add_string b (string_of_int t.reset_counts.(p));
    Buffer.add_char b '~';
    Buffer.add_string b (Prng.Stream.fingerprint t.rngs.(p));
    (* Pending outbox: [outgoing] is pure (lint R8), so peeking at the
       sends the current state would emit observes outbox content
       without mutating the configuration. *)
    let _, sends = t.protocol.Protocol.outgoing t.states.(p) in
    List.iter
      (fun send ->
        match send with
        | Step.Unicast (dst, payload) ->
            Buffer.add_string b (Printf.sprintf ">u%d:%s" dst (pp_msg payload))
        | Step.Broadcast payload ->
            Buffer.add_string b (Printf.sprintf ">b:%s" (pp_msg payload)))
      sends;
    Buffer.add_char b '|'
  done;
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "m%d>%d:%s;" e.Envelope.src e.Envelope.dst
           (pp_msg e.Envelope.payload)))
    (Mailbox.pending t.mailbox);
  Buffer.contents b

(* Record a decision event when a state transition wrote the output bit. *)
let note_decision t p before_output =
  match (before_output, output t p) with
  | None, Some value ->
      Trace.record t.trace
        (Trace.Decided
           {
             pid = p;
             value;
             step = t.step_index;
             window = t.window_index;
             chain_depth = t.receive_depths.(p);
           })
  | _, _ -> ()

(* Enqueue one send value: O(1) regardless of fan-out.  A [Unicast]
   claims the next id; a [Broadcast] reserves n consecutive ids
   (id = first + dst, the order an eager expansion would assign) but
   stores the payload once in the mailbox's broadcast table. *)
let enqueue_send t p depth send =
  match send with
  | Step.Unicast (dst, payload) ->
      if dst < 0 || dst >= t.n then
        invalid_arg "Engine: protocol sent out of range";
      let id = t.next_msg_id in
      t.next_msg_id <- id + 1;
      Mailbox.add_unicast t.mailbox ~id ~src:p ~dst ~payload ~depth
        ~sent_at_step:t.step_index ~sent_in_window:t.window_index;
      Trace.record t.trace (Trace.Sent { src = p; dst; msg_id = id; depth })
  | Step.Broadcast payload ->
      let first = t.next_msg_id in
      t.next_msg_id <- first + t.n;
      Mailbox.add_broadcast t.mailbox ~first ~count:t.n ~src:p ~payload ~depth
        ~sent_at_step:t.step_index ~sent_in_window:t.window_index;
      Trace.record_broadcast t.trace ~src:p ~first ~count:t.n ~depth

let do_send t p =
  if not t.crashed.(p) then begin
    let state, sends = t.protocol.Protocol.outgoing t.states.(p) in
    t.states.(p) <- state;
    (* A sending step that actually emits messages is a "sending event"
       in the sense of Definition 15: it completes the response to the
       deliveries accumulated so far. *)
    if t.track_deliveries && not (List.is_empty sends) then
      t.recent_deliveries.(p) <- [];
    let depth = t.receive_depths.(p) + 1 in
    List.iter (fun send -> enqueue_send t p depth send) sends
  end

(* Deliver an envelope already removed from the mailbox: the tail of
   [do_deliver], shared with the [Mailbox.drain_for] walks that remove
   envelopes as they visit them. *)
let deliver_taken t (envelope : _ Envelope.t) =
  let id = envelope.Envelope.id in
  let dst = envelope.Envelope.dst in
  if t.crashed.(dst) then
    Trace.record t.trace (Trace.Dropped { msg_id = id })
  else begin
    let before = output t dst in
    t.states.(dst) <-
      t.protocol.Protocol.on_deliver t.states.(dst) ~src:envelope.Envelope.src
        envelope.Envelope.payload t.rngs.(dst);
    t.receive_depths.(dst) <- max t.receive_depths.(dst) envelope.Envelope.depth;
    if t.track_deliveries then
      t.recent_deliveries.(dst) <-
        (envelope.Envelope.src, envelope.Envelope.payload)
        :: t.recent_deliveries.(dst);
    Trace.record t.trace
      (Trace.Delivered
         {
           src = envelope.Envelope.src;
           dst;
           msg_id = id;
           depth = envelope.Envelope.depth;
         });
    note_decision t dst before
  end

let do_deliver t id =
  match Mailbox.take t.mailbox id with
  | None -> invalid_arg (Printf.sprintf "Engine: deliver of unknown message #%d" id)
  | Some envelope -> deliver_taken t envelope

(* A delivery step for an envelope a drain walk has just removed: the
   [Step.Deliver] branch of [apply] without the re-probe. *)
let deliver_step t envelope =
  t.step_index <- t.step_index + 1;
  deliver_taken t envelope

let do_reset t p =
  if not t.crashed.(p) then begin
    t.states.(p) <- t.protocol.Protocol.on_reset t.states.(p);
    t.reset_counts.(p) <- t.reset_counts.(p) + 1;
    if t.track_deliveries then t.recent_deliveries.(p) <- [];
    Trace.record t.trace (Trace.Reset_done { pid = p })
  end

let do_crash t p =
  if not t.crashed.(p) then begin
    t.crashed.(p) <- true;
    Trace.record t.trace (Trace.Crashed { pid = p })
  end

let apply t step =
  t.step_index <- t.step_index + 1;
  match step with
  | Step.Send p -> do_send t p
  | Step.Deliver id -> do_deliver t id
  | Step.Drop id -> (
      match Mailbox.take t.mailbox id with
      | None -> invalid_arg (Printf.sprintf "Engine: drop of unknown message #%d" id)
      | Some _ -> Trace.record t.trace (Trace.Dropped { msg_id = id }))
  | Step.Reset p -> do_reset t p
  | Step.Crash p -> do_crash t p
  | Step.Corrupt (id, payload) ->
      if not (Mailbox.replace_payload t.mailbox id payload) then
        invalid_arg (Printf.sprintf "Engine: corrupt of unknown message #%d" id)

let apply_window t ?tamper window =
  let fresh_from = t.next_msg_id in
  (* Phase 1: all processors take sending steps. *)
  for p = 0 to t.n - 1 do
    apply t (Step.Send p)
  done;
  let fresh_to = t.next_msg_id in
  (* In-transit corruption: the adversary may rewrite this window's
     fresh messages after they are sent and before any is delivered. *)
  (match tamper with None -> () | Some f -> f ~from_id:fresh_from ~til_id:fresh_to);
  (* Phase 2: each processor i receives the just-sent messages from S_i,
     in ascending (sender, id) order — "some fixed order".  One
     [Mailbox.drain_for] walk per processor visits its queue merged with
     the broadcast table and removes each delivered envelope as it goes. *)
  let deliver = deliver_step t in
  for dst = 0 to t.n - 1 do
    Mailbox.drain_for t.mailbox ~dst ~from:fresh_from ~til:fresh_to
      ~allow:(fun src -> Window.allows window ~dst ~src)
      deliver
  done;
  (* Undelivered fresh messages can never legally be delivered by a
     later window, so clear them out: one ascending merge walk over the
     window's own id range (near-free after full-delivery windows,
     where nothing fresh is left pending). *)
  Mailbox.iter_ids_in_range t.mailbox ~from:fresh_from ~til:fresh_to (fun id ->
      apply t (Step.Drop id));
  (* Phase 3: at most t resetting steps. *)
  List.iter (fun p -> apply t (Step.Reset p)) (Window.resets window);
  t.window_index <- t.window_index + 1;
  Trace.record t.trace (Trace.Window_closed { index = t.window_index })

let deliver_all_pending t ~dst =
  Mailbox.drain_for t.mailbox ~dst ~from:min_int ~til:max_int
    ~allow:(fun _ -> true)
    (deliver_step t)
