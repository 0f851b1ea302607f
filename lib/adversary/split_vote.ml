let escape_threshold ~n:_ ~t ~thresholds = thresholds.Protocols.Thresholds.t3 + t

(* Silence up to [t] holders of the majority estimate.  If both census
   counts already fit under the visible-majority threshold nothing needs
   silencing, but trimming the majority never hurts the adversary. *)
let balancing_silence config =
  let t = Dsim.Engine.fault_bound config in
  let zeros, ones, _ = Strategy.vote_census config in
  let majority_count = max zeros ones in
  let to_silence = min t (max 0 (majority_count - min zeros ones)) in
  Strategy.majority_holders config ~limit:(min t to_silence)

let windowed () =
  fun config ->
    let n = Dsim.Engine.n config in
    (* The balancing set stabilizes once the estimates do; the memo
       then replays one shared window instead of rebuilding it. *)
    Some (Strategy.cached_uniform ~n ~silenced:(balancing_silence config) ())

let windowed_with_resets () =
  fun config ->
    let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
    let silenced = balancing_silence config in
    (* Reset further majority holders beyond the silenced ones. *)
    let resets =
      Strategy.majority_holders config ~limit:(2 * t)
      |> List.filter (fun p -> not (List.mem p silenced))
      |> List.filteri (fun i _ -> i < t)
    in
    Some (Dsim.Window.uniform ~n ~silenced ~resets ())

(* Free-running balancing.  Each cycle: sends for all live processors,
   then for each destination deliver the pending messages from all but
   up to [t] senders, excluding senders whose message carries the
   over-represented bit among that destination's pending messages. *)
let stepwise () =
  let queue = Queue.create () in
  let plan config =
    let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
    let protocol = Dsim.Engine.protocol config in
    let live p = not (Dsim.Engine.crashed config p) in
    let sends =
      List.filter_map
        (fun p -> if live p then Some (Dsim.Step.Send p) else None)
        (List.init n (fun i -> i))
    in
    let mailbox = Dsim.Engine.mailbox config in
    let deliveries_for dst =
      let pending = Dsim.Mailbox.pending_for mailbox ~dst in
      let bit_of e = protocol.Dsim.Protocol.message_bit e.Dsim.Envelope.payload in
      let bit_is e v =
        match bit_of e with Some b -> Bool.equal b v | None -> false
      in
      let ones = List.length (List.filter (fun e -> bit_is e true) pending) in
      let zeros = List.length (List.filter (fun e -> bit_is e false) pending) in
      let majority_bit = if ones >= zeros then true else false in
      let excess = abs (ones - zeros) in
      let budget = min t excess in
      (* Walk ascending ids; skip up to [budget] majority-bit messages. *)
      let skipped = ref 0 in
      List.filter_map
        (fun e ->
          if bit_is e majority_bit && !skipped < budget then begin
            incr skipped;
            Some (Dsim.Step.Drop e.Dsim.Envelope.id)
          end
          else Some (Dsim.Step.Deliver e.Dsim.Envelope.id))
        pending
    in
    let delivers =
      List.concat_map
        (fun dst -> if live dst then deliveries_for dst else [])
        (List.init n (fun i -> i))
    in
    sends @ delivers
  in
  fun config ->
    if Queue.is_empty queue then List.iter (fun s -> Queue.add s queue) (plan config);
    if Queue.is_empty queue then None else Some (Queue.pop queue)
