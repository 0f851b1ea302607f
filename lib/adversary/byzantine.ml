type flavour = Flip | Equivocate | Silent

let lockstep ~corrupt ~flavour () =
  let queue = Queue.create () in
  let plan config =
    let n = Dsim.Engine.n config in
    let t = Dsim.Engine.fault_bound config in
    if List.length corrupt > t then invalid_arg "Byzantine.lockstep: more than t corrupt";
    let protocol = Dsim.Engine.protocol config in
    let live p = not (Dsim.Engine.crashed config p) in
    let sends =
      List.filter_map
        (fun p -> if live p then Some (Dsim.Step.Send p) else None)
        (List.init n (fun i -> i))
    in
    (* One ascending walk over the pending envelopes plans both the
       corruption steps and the deliveries that follow them: ids are
       stable under corruption, only payloads change, so planning the
       deliveries now is sound.  Dropped ids are not delivered. *)
    let corruptions = ref [] and delivers = ref [] in
    let deliver id = delivers := Dsim.Step.Deliver id :: !delivers in
    let rewrite id = function
      | None -> ()
      | Some payload -> corruptions := Dsim.Step.Corrupt (id, payload) :: !corruptions
    in
    Dsim.Mailbox.iter_range (Dsim.Engine.mailbox config) ~from:0 ~til:max_int ()
      (fun () ~id ~src ~dst ~depth:_ payload ->
        if not (List.mem src corrupt) then deliver id
        else
          match flavour with
          | Silent -> corruptions := Dsim.Step.Drop id :: !corruptions
          | Flip ->
              rewrite id
                (Option.bind (protocol.Dsim.Protocol.message_bit payload) (fun bit ->
                     protocol.Dsim.Protocol.rewrite_bit payload (not bit)));
              deliver id
          | Equivocate ->
              rewrite id
                (Option.bind (Dsim.Engine.observe config dst).Dsim.Obs.estimate
                   (protocol.Dsim.Protocol.rewrite_bit payload));
              deliver id);
    sends @ List.rev_append !corruptions (List.rev !delivers)
  in
  fun config ->
    if Queue.is_empty queue then List.iter (fun s -> Queue.add s queue) (plan config);
    if Queue.is_empty queue then None else Some (Queue.pop queue)
