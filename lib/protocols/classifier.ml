type verdict = No_counterexample of int | Counterexample of string

type report = {
  protocol_name : string;
  declared_forgetful : bool;
  declared_fully_communicative : bool;
  forgetful : verdict;
  fully_communicative : verdict;
}

(* The conditioning data of Definition 15: the input bit, the messages
   delivered since the last message-emitting send (tracked by the
   engine), and the estimate as a stand-in for the coins flipped since
   then (every protocol here folds its per-round randomness into the
   estimate before sending). *)
let forgetful_core config p =
  let obs = Dsim.Engine.observe config p in
  Printf.sprintf "in=%d x=%s recent=[%s]"
    (if obs.Dsim.Obs.input then 1 else 0)
    (match obs.Dsim.Obs.estimate with
    | None -> "_"
    | Some true -> "1"
    | Some false -> "0")
    (String.concat "|" (Dsim.Engine.recent_deliveries config p))

(* Canonical rendering of what a processor would send next: flush its
   outbox on a copy of the configuration and print the messages,
   expanded to explicit (destination, payload) pairs. *)
let next_sends config p =
  let protocol = Dsim.Engine.protocol config in
  let _, sends = protocol.Dsim.Protocol.outgoing (Dsim.Engine.state config p) in
  let b = Buffer.create 256 in
  List.iter
    (fun (dst, m) ->
      if Buffer.length b > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int dst);
      Buffer.add_string b "<=";
      protocol.Dsim.Protocol.add_message b m)
    (Dsim.Step.expand ~n:(Dsim.Engine.n config) sends);
  Buffer.contents b

let check protocol ~n ~t ~seeds ~windows_per_run =
  let core_table : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let forgetful_witness = ref None in
  let fully_comm_witness = ref None in
  let trials = ref 0 in
  let inspect config =
    for p = 0 to n - 1 do
      incr trials;
      let core = forgetful_core config p in
      let sends = next_sends config p in
      (* Forgetful check: same core must imply same next sends. *)
      (match Hashtbl.find_opt core_table core with
      | None -> Hashtbl.add core_table core sends
      | Some previous ->
          if (not (String.equal previous sends))
             && Option.is_none !forgetful_witness
          then
            forgetful_witness :=
              Some
                (Printf.sprintf
                   "core {%s} emitted both {%s} and {%s}" core previous sends));
      (* Fully-communicative check: a processor whose outbox is
         non-empty must address all n processors. *)
      if (not (String.equal sends "")) && Option.is_none !fully_comm_witness
      then begin
        let recipients =
          let _, outbox =
            (Dsim.Engine.protocol config).Dsim.Protocol.outgoing
              (Dsim.Engine.state config p)
          in
          let messages = Dsim.Step.expand ~n outbox in
          List.sort_uniq compare (List.map fst messages)
        in
        if List.length recipients <> n then
          fully_comm_witness :=
            Some
              (Printf.sprintf "p%d is sending to %d of %d processors" p
                 (List.length recipients) n)
      end
    done
  in
  (* Window construction is O(n) and the silenced set depends only on
     [w mod n], so build the full-delivery window and the n silencing
     variants once, outside the per-seed per-window loop, instead of
     rebuilding the pid list with [List.init] every window. *)
  let full_window = Dsim.Window.uniform ~n () in
  let silencing_window =
    Array.init n (fun r ->
        Dsim.Window.uniform ~n ~silenced:(List.init t (fun i -> (r + i) mod n)) ())
  in
  List.iter
    (fun seed ->
      (* Alternate full-delivery windows with silencing windows to vary
         the histories feeding the core table. *)
      let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let config =
        Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs ~seed
          ~track_deliveries:true ()
      in
      inspect config;
      for w = 1 to windows_per_run do
        let window =
          if w mod 2 = 0 then silencing_window.(w mod n) else full_window
        in
        Dsim.Engine.apply_window config window;
        inspect config
      done)
    seeds;
  let verdict witness =
    match !witness with
    | None -> No_counterexample !trials
    | Some w -> Counterexample w
  in
  {
    protocol_name = protocol.Dsim.Protocol.name;
    declared_forgetful = protocol.Dsim.Protocol.props.Dsim.Protocol.forgetful;
    declared_fully_communicative =
      protocol.Dsim.Protocol.props.Dsim.Protocol.fully_communicative;
    forgetful = verdict forgetful_witness;
    fully_communicative = verdict fully_comm_witness;
  }

let consistent report =
  let ok declared = function
    | No_counterexample _ -> true
    | Counterexample _ -> not declared
  in
  ok report.declared_forgetful report.forgetful
  && ok report.declared_fully_communicative report.fully_communicative
