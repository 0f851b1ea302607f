let stepwise ?(patience = 8) () =
  let queue = Queue.create () in
  let last_progress_mark = ref (-1) in
  let stalled_cycles = ref 0 in
  let plan config =
    let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
    let protocol = Dsim.Engine.protocol config in
    let observations = Dsim.Engine.observations config in
    let live p = not (Dsim.Engine.crashed config p) in
    (* Progress detection for the stall breaker: total round+phase mass. *)
    let progress_mark =
      Array.fold_left
        (fun acc o -> acc + (max 0 o.Dsim.Obs.round * 8) + o.Dsim.Obs.phase)
        0 observations
    in
    if progress_mark = !last_progress_mark then incr stalled_cycles
    else begin
      last_progress_mark := progress_mark;
      stalled_cycles := 0
    end;
    let flush = !stalled_cycles >= patience in
    if flush then stalled_cycles := 0;
    let sends =
      List.filter_map
        (fun p -> if live p then Some (Dsim.Step.Send p) else None)
        (List.init n (fun i -> i))
    in
    let mailbox = Dsim.Engine.mailbox config in
    let estimate_of p = observations.(p).Dsim.Obs.estimate in
    (* Per destination holding estimate [b]: let through the votes of
       all [b]-holders plus just enough opposite-estimate origins to
       reach the [n - t] quorum; defer everything else carrying the
       opposite vote, wherever it travels (origin-based, so relayed
       echoes and readies of a deferred vote are deferred too). *)
    let allowed_opposite dst =
      match estimate_of dst with
      | None -> `All
      | Some b ->
          let holders value =
            List.filter
              (fun p -> Dsim.Obs.estimate_is observations.(p) value)
              (List.init n (fun i -> i))
          in
          let own = List.length (holders b) in
          let allow = max 0 (n - t - own) in
          `Allow (b, List.filteri (fun i _ -> i < allow) (holders (not b)))
    in
    (* One [iter_for] walk per live destination, ascending ids; the
       deliveries are collected in reverse. *)
    let delivers = ref [] in
    for dst = 0 to n - 1 do
      if live dst then begin
        let policy = allowed_opposite dst in
        let dst_round = observations.(dst).Dsim.Obs.round in
        Dsim.Mailbox.iter_for mailbox ~dst () (fun () ~id ~src ~dst:_ ~depth:_ payload ->
            let current =
              match protocol.Dsim.Protocol.message_round payload with
              | Some r -> r >= dst_round
              | None -> true
            in
            let origin =
              match protocol.Dsim.Protocol.message_origin payload with
              | Some o -> o
              | None -> src
            in
            let defer =
              (not flush) && current
              &&
              match (policy, protocol.Dsim.Protocol.message_bit payload) with
              | `All, _ | _, None -> false
              | `Allow (b, allowed), Some bit -> bit <> b && not (List.mem origin allowed)
            in
            if not defer then delivers := Dsim.Step.Deliver id :: !delivers)
      end
    done;
    sends @ List.rev !delivers
  in
  fun config ->
    if Queue.is_empty queue then List.iter (fun s -> Queue.add s queue) (plan config);
    if Queue.is_empty queue then None else Some (Queue.pop queue)
