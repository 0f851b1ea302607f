(* Differential validation of the dsim kernel hot-path rewrite.

   The mailbox (a table of shared broadcast entries) and window (bitset
   masks + cached sizes) replaced persistent-map / list
   implementations; [Engine.apply_window] now walks each destination's
   envelopes directly.  This module keeps the old semantics alive as [Reference]
   implementations and drives both sides with random operation
   sequences, windows, resets and corrupt/drop steps — they must agree
   observation for observation.  A second layer pins MD5 fingerprints,
   step counts and sweep outputs captured from the pre-rewrite kernel,
   proving executions are byte-identical to seed at [-j 1] and [-j 2]. *)

let to_alcotest = Test_seed.to_alcotest

(* ------------------------------------------------------------------ *)
(* Reference mailbox: the pre-rewrite Int_map implementation, holding
   one explicit record per destination.                                *)

type 'm envelope = { id : int; src : int; dst : int; payload : 'm; depth : int }

module Ref_mailbox = struct
  module Int_map = Map.Make (Int)

  type 'm t = { mutable by_id : 'm envelope Int_map.t }

  let create () = { by_id = Int_map.empty }
  let copy t = { by_id = t.by_id }
  let insert t envelope = t.by_id <- Int_map.add envelope.id envelope t.by_id

  let take t id =
    match Int_map.find_opt id t.by_id with
    | None -> None
    | Some envelope ->
        t.by_id <- Int_map.remove id t.by_id;
        Some envelope

  let replace_payload t id payload =
    match Int_map.find_opt id t.by_id with
    | None -> false
    | Some envelope ->
        t.by_id <- Int_map.add id { envelope with payload } t.by_id;
        true

  let size t = Int_map.cardinal t.by_id
  let pending t = List.map snd (Int_map.bindings t.by_id)
  let pending_for t ~dst = List.filter (fun e -> e.dst = dst) (pending t)
  let pending_ids t = List.map fst (Int_map.bindings t.by_id)
end

(* The fields the field-passing walks hand their visitors. *)
let fields e = (e.id, e.src, e.dst, e.depth, e.payload)

let collect_fields acc ~id ~src ~dst ~depth payload =
  acc := (id, src, dst, depth, payload) :: !acc

(* The mailbox's pending envelopes as records, ascending id: the range
   walk collected. *)
let envelopes m =
  let acc = ref [] in
  Dsim.Mailbox.iter_range m ~from:0 ~til:max_int acc (fun acc ~id ~src ~dst ~depth payload ->
      acc := { id; src; dst; payload; depth } :: !acc);
  List.rev !acc

(* Removal against the reference's [take]: [take_with] removes the
   envelope and hands over its fields exactly once (a miss removes
   nothing and visits nothing). *)
let take_agrees (m : int Dsim.Mailbox.t) (r : int Ref_mailbox.t) id =
  let taken = ref [] in
  let removed = Dsim.Mailbox.take_with m id taken collect_fields in
  match Ref_mailbox.take r id with
  | None -> (not removed) && !taken = []
  | Some e -> removed && !taken = [ fields e ]

(* Every observable accessor, on both sides. *)
let mailbox_obs_equal (m : int Dsim.Mailbox.t) (r : int Ref_mailbox.t) =
  let iter_for_collect dst =
    let acc = ref [] in
    Dsim.Mailbox.iter_for m ~dst acc collect_fields;
    List.rev !acc
  in
  Dsim.Mailbox.size m = Ref_mailbox.size r
  && envelopes m = Ref_mailbox.pending r
  && Dsim.Mailbox.pending_ids m = Ref_mailbox.pending_ids r
  && List.for_all
       (fun dst -> iter_for_collect dst = List.map fields (Ref_mailbox.pending_for r ~dst))
       [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

(* The window delivery walk against its specification: the envelopes
   [drain_for] visits, in order, are the reference's [pending_for]
   filtered by id range and sender mask, each then taken.  [dst] may
   exceed every broadcast's fan-out; senders are drawn from [0, 8). *)
let drain_agrees rng m r ~id_bound =
  let dst = Prng.Stream.int_below rng 11 in
  let from = Prng.Stream.int_below rng id_bound in
  let til = from + Prng.Stream.int_below rng 24 in
  let mask = Array.init 8 (fun _ -> Prng.Stream.bool rng) in
  let allow ~dst:_ ~src = mask.(src) in
  let drained = ref [] in
  Dsim.Mailbox.drain_for m ~dst ~from ~til ~allow drained collect_fields;
  let expected =
    List.filter
      (fun e -> e.id >= from && e.id < til && mask.(e.src))
      (Ref_mailbox.pending_for r ~dst)
  in
  List.iter (fun e -> ignore (Ref_mailbox.take r e.id)) expected;
  List.rev !drained = List.map fields expected && mailbox_obs_equal m r

(* Broadcast envelopes against the reference: one [add_broadcast] must
   be observation-equivalent to the n eager adds it replaces, under
   random takes, corruption ([replace_payload] overrides one member),
   delivery drains and range sweeps. *)
let prop_broadcast_mailbox_differential =
  QCheck.Test.make ~count:60 ~name:"lazy broadcast matches n eager adds"
    QCheck.small_int (fun seed ->
      let rng = Prng.Stream.root (seed + 409) in
      let m : int Dsim.Mailbox.t = Dsim.Mailbox.create () in
      let r : int Ref_mailbox.t = Ref_mailbox.create () in
      let next_id = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      for op = 1 to 200 do
        (match Prng.Stream.int_below rng 10 with
        | 0 | 1 | 2 ->
            (* a broadcast: ids [first, first + count), dst = id - first *)
            let count = 1 + Prng.Stream.int_below rng 9 in
            let src = Prng.Stream.int_below rng 8 in
            let first = !next_id in
            next_id := first + count;
            let depth = (first mod 5) + 1 in
            Dsim.Mailbox.add_broadcast m ~first ~count ~src ~payload:(first * 17) ~depth;
            for dst = 0 to count - 1 do
              Ref_mailbox.insert r { id = first + dst; src; dst; payload = first * 17; depth }
            done
        | 3 | 4 ->
            let id = Prng.Stream.int_below rng (!next_id + 4) in
            check (take_agrees m r id)
        | 5 ->
            (* corruption: overrides the payload of one broadcast member *)
            let id = Prng.Stream.int_below rng (!next_id + 4) in
            let payload = Prng.Stream.int_below rng 1000 in
            check
              (Dsim.Mailbox.replace_payload m id payload
              = Ref_mailbox.replace_payload r id payload)
        | 6 -> check (drain_agrees rng m r ~id_bound:(!next_id + 1))
        | (7 | 8) as kind ->
            (* a range walk; on 8 it takes each visited envelope, as the
               engine's drop sweep does *)
            let from = Prng.Stream.int_below rng (!next_id + 1) in
            let til = from + Prng.Stream.int_below rng 24 in
            let expected =
              List.filter (fun e -> e.id >= from && e.id < til) (Ref_mailbox.pending r)
            in
            let swept = ref [] in
            if kind = 7 then begin
              Dsim.Mailbox.iter_range m ~from ~til swept collect_fields;
              check (List.rev !swept = List.map fields expected)
            end
            else begin
              Dsim.Mailbox.iter_range m ~from ~til swept
                (fun swept ~id ~src ~dst ~depth payload ->
                  collect_fields swept ~id ~src ~dst ~depth payload;
                  check (Dsim.Mailbox.take_with m id () (fun () ~id:_ ~src:_ ~dst:_ ~depth:_ _ -> ())));
              check (List.rev !swept = List.map fields expected);
              List.iter (fun e -> ignore (Ref_mailbox.take r e.id)) expected
            end
        | _ -> check (mailbox_obs_equal m r));
        if op mod 25 = 0 then check (mailbox_obs_equal m r)
      done;
      check (mailbox_obs_equal m r);
      (* deep copy: corrupting and draining the copy leaves the original
         alone *)
      let mc = Dsim.Mailbox.copy m and rc = Ref_mailbox.copy r in
      check (mailbox_obs_equal mc rc);
      List.iter
        (fun id ->
          check
            (Dsim.Mailbox.replace_payload mc id (-id) = Ref_mailbox.replace_payload rc id (-id));
          check (take_agrees mc rc id))
        (Ref_mailbox.pending_ids rc);
      check (Dsim.Mailbox.size mc = 0);
      check (mailbox_obs_equal m r);
      !ok)

(* The engine's delivery pattern: taking the visited envelope while the
   per-dst iteration runs must still visit every envelope once. *)
let test_iter_for_take_during_iteration () =
  let m : int Dsim.Mailbox.t = Dsim.Mailbox.create () in
  List.iter
    (fun (first, count) ->
      Dsim.Mailbox.add_broadcast m ~first ~count ~src:(first mod 3) ~payload:first ~depth:1)
    [ (0, 2); (2, 3); (5, 1); (6, 2) ];
  let visited = ref [] in
  Dsim.Mailbox.iter_for m ~dst:1 () (fun () ~id ~src:_ ~dst:_ ~depth:_ _ ->
      visited := id :: !visited;
      if not (Dsim.Mailbox.take_with m id () (fun () ~id:_ ~src:_ ~dst:_ ~depth:_ _ -> ()))
      then Alcotest.fail "visited envelope vanished");
  Alcotest.(check (list int)) "all dst-1 envelopes, ascending" [ 1; 3; 7 ]
    (List.rev !visited);
  Alcotest.(check (list int)) "the others untouched" [ 0; 2; 4; 5; 6 ]
    (Dsim.Mailbox.pending_ids m)

(* ------------------------------------------------------------------ *)
(* Reference window semantics: the pre-rewrite list implementation.    *)

let ref_validate ~n ~t (w : Dsim.Window.t) =
  let in_range p = p >= 0 && p < n in
  let first_out_of_range ps = List.find_opt (fun p -> not (in_range p)) ps in
  let check_set i s =
    match first_out_of_range s with
    | Some p ->
        Error (Printf.sprintf "S_%d contains out-of-range pid %d (n = %d)" i p n)
    | None ->
    if List.length s < n - t then
      Error
        (Printf.sprintf "S_%d has %d senders; need >= n - t = %d" i
           (List.length s) (n - t))
    else Ok ()
  in
  if Array.length (Dsim.Window.to_lists w) <> n then
    Error
      (Printf.sprintf "window has %d receive sets; need %d"
         (Array.length (Dsim.Window.to_lists w))
         n)
  else if List.length (Dsim.Window.resets w) > t then
    Error
      (Printf.sprintf "window resets %d processors; at most t = %d allowed"
         (List.length (Dsim.Window.resets w))
         t)
  else
    match first_out_of_range (Dsim.Window.resets w) with
    | Some p ->
        Error
          (Printf.sprintf "reset set contains out-of-range pid %d (n = %d)" p n)
    | None ->
    let rec check i =
      if i >= n then Ok ()
      else
        match check_set i (Dsim.Window.to_lists w).(i) with
        | Error _ as e -> e
        | Ok () -> check (i + 1)
    in
    check 0

let ref_is_fault_free (w : Dsim.Window.t) ~n =
  List.length (Dsim.Window.resets w) = 0
  && Array.for_all (fun s -> List.length s = n) (Dsim.Window.to_lists w)

let validation_agrees a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error x, Error y -> String.equal x y
  | Ok (), Error _ | Error _, Ok () -> false

let prop_window_differential =
  QCheck.Test.make ~count:300 ~name:"window ops match list reference"
    QCheck.small_int (fun seed ->
      let rng = Prng.Stream.root (seed + 977) in
      let n = 1 + Prng.Stream.int_below rng 9 in
      let t = Prng.Stream.int_below rng n in
      (* arity sometimes off by one, sets drawn from a pool that spills
         outside [0, n) on both sides, resets likewise *)
      let arity = max 1 (n - 1 + Prng.Stream.int_below rng 3) in
      let pool = List.init (n + 5) (fun i -> i - 2) in
      let receive_sets =
        Array.init arity (fun _ ->
            List.filter (fun _ -> Prng.Stream.bool rng) pool)
      in
      let resets =
        List.filter (fun _ -> Prng.Stream.bernoulli rng 0.25) pool
      in
      let w = Dsim.Window.make ~receive_sets ~resets in
      validation_agrees (ref_validate ~n ~t w) (Dsim.Window.validate ~n ~t w)
      && ref_is_fault_free w ~n = Dsim.Window.is_fault_free w ~n
      && List.for_all
           (fun dst ->
             let set = Dsim.Window.receive_set w dst in
             (* negative pids can sit in an (invalid) stored set but can
                never be senders: [allows] answers [false], exactly as
                the old delivery loop's flag array did *)
             List.for_all
               (fun src ->
                 Dsim.Window.allows w ~dst ~src
                 = (src >= 0 && List.mem src set))
               pool)
           (List.init arity (fun i -> i)))

let prop_bitset_reference =
  QCheck.Test.make ~count:300 ~name:"bitset matches list reference"
    QCheck.(pair (int_bound 80) (list_of_size Gen.(0 -- 40) (int_bound 100)))
    (fun (capacity, raw) ->
      let b = Dsim.Bitset.of_list ~capacity raw in
      let members =
        List.sort_uniq Int.compare
          (List.filter (fun i -> i >= 0 && i < capacity) raw)
      in
      Dsim.Bitset.to_list b = members
      && Dsim.Bitset.cardinal b = List.length members
      && List.for_all
           (fun i -> Dsim.Bitset.mem b i = List.mem i members)
           (List.init (capacity + 4) (fun i -> i - 2))
      && List.for_all
           (fun limit ->
             Dsim.Bitset.cardinal_below b limit
             = List.length (List.filter (fun i -> i < limit) members))
           (List.init (capacity + 2) (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Reference window application: the old list/map delivery algorithm,
   expressed through the public engine API (fresh ids recovered from
   the trace's send counter, which equals the engine's id source).     *)

let reference_apply_window config window =
  let n = Dsim.Engine.n config in
  let trace = Dsim.Engine.trace config in
  let mailbox = Dsim.Engine.mailbox config in
  let fresh_from = Dsim.Trace.sent trace in
  for p = 0 to n - 1 do
    Dsim.Engine.apply config (Dsim.Step.Send p)
  done;
  let fresh_to = Dsim.Trace.sent trace in
  let is_fresh e = e.id >= fresh_from && e.id < fresh_to in
  let allowed =
    Array.init n (fun dst ->
        let flags = Array.make n false in
        List.iter
          (fun s -> if s >= 0 && s < n then flags.(s) <- true)
          (Dsim.Window.receive_set window dst);
        flags)
  in
  let per_dst = Array.make n [] in
  List.iter
    (fun e -> if is_fresh e then per_dst.(e.dst) <- e :: per_dst.(e.dst))
    (envelopes mailbox);
  for dst = 0 to n - 1 do
    List.iter
      (fun e ->
        if allowed.(dst).(e.src) then Dsim.Engine.apply config (Dsim.Step.Deliver e.id))
      (List.rev per_dst.(dst))
  done;
  List.iter
    (fun e -> if is_fresh e then Dsim.Engine.apply config (Dsim.Step.Drop e.id))
    (envelopes mailbox);
  List.iter
    (fun p -> Dsim.Engine.apply config (Dsim.Step.Reset p))
    (Dsim.Window.resets window)

(* Everything observable except the window counter (the reference path
   cannot close windows through the public API, so [window_index] is
   exempt). *)
let configs_agree fast slow =
  let pending c = envelopes (Dsim.Engine.mailbox c) in
  let counters c =
    let tr = Dsim.Engine.trace c in
    ( Dsim.Trace.sent tr,
      Dsim.Trace.delivered tr,
      Dsim.Trace.dropped tr,
      Dsim.Trace.resets tr,
      Dsim.Engine.step_index c )
  in
  String.equal (Test_cores.joined fast) (Test_cores.joined slow)
  && pending fast = pending slow
  && counters fast = counters slow

let prop_apply_window_differential =
  QCheck.Test.make ~count:60
    ~name:"apply_window matches reference list/map semantics over random \
           windows/resets/corrupt/drop" QCheck.small_int (fun seed ->
      let n = 7 and t = 2 in
      let protocol = Protocols.Ben_or.protocol () in
      let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let fast = Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs ~seed () in
      let slow = Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs ~seed () in
      let rng = Prng.Stream.root ((seed * 7919) + 13) in
      let pool = List.init (n + 3) (fun i -> i - 1) in
      let ok = ref true in
      for _w = 1 to 6 do
        let receive_sets =
          Array.init n (fun _ -> List.filter (fun _ -> Prng.Stream.bool rng) pool)
        in
        let resets =
          List.filter (fun _ -> Prng.Stream.bernoulli rng 0.2) [ 0; 1; 2 ]
        in
        let window = Dsim.Window.make ~receive_sets ~resets in
        Dsim.Engine.apply_window fast window;
        reference_apply_window slow window;
        (* poke a surviving stale message on both sides *)
        (match Dsim.Mailbox.pending_ids (Dsim.Engine.mailbox fast) with
        | [] -> ()
        | ids ->
            let id = List.nth ids (Prng.Stream.int_below rng (List.length ids)) in
            if Prng.Stream.bool rng then begin
              let payload =
                Protocols.Ben_or.Report
                  { round = 0; value = Prng.Stream.bool rng }
              in
              Dsim.Engine.apply fast (Dsim.Step.Corrupt (id, payload));
              Dsim.Engine.apply slow (Dsim.Step.Corrupt (id, payload))
            end
            else begin
              Dsim.Engine.apply fast (Dsim.Step.Drop id);
              Dsim.Engine.apply slow (Dsim.Step.Drop id)
            end);
        if not (configs_agree fast slow) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The recent-deliveries gate: off records nothing, on perturbs nothing. *)

let test_delivery_tracking_gate () =
  let protocol = Protocols.Ben_or.protocol () in
  let run ~track_deliveries =
    let config =
      Dsim.Engine.init ~protocol ~n:5 ~fault_bound:1
        ~inputs:[| true; false; true; false; true |] ~seed:3 ~track_deliveries
        ()
    in
    for _ = 1 to 3 do
      Dsim.Engine.apply_window config (Dsim.Window.uniform ~n:5 ())
    done;
    config
  in
  let off = run ~track_deliveries:false in
  let on = run ~track_deliveries:true in
  for p = 0 to 4 do
    Alcotest.(check (list string))
      (Printf.sprintf "untracked log empty for p%d" p)
      []
      (Dsim.Engine.recent_deliveries off p)
  done;
  Alcotest.(check bool) "tracked log non-empty" true
    (List.exists
       (fun p -> not (List.is_empty (Dsim.Engine.recent_deliveries on p)))
       [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check string) "tracking does not perturb the execution"
    (Test_cores.joined off) (Test_cores.joined on)

(* ------------------------------------------------------------------ *)
(* Pinned executions: fingerprint digests, step and window counts
   captured from the pre-rewrite kernel (commit 5dba038).  Any drift
   here means the rewrite changed semantics, not just speed.           *)

let split_inputs ~n seed = Array.init n (fun i -> (i + seed) mod 2 = 0)

let windowed_pin ?record_events ~protocol ~n ~t ~seed ~max_windows strategy =
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs:(split_inputs ~n seed)
      ~seed ?record_events ()
  in
  let outcome =
    Dsim.Runner.run_windows config ~strategy ~max_windows ~stop:`First_decision
  in
  ( outcome.Dsim.Runner.steps,
    outcome.Dsim.Runner.windows,
    Digest.to_hex (Digest.string (Test_cores.joined config)),
    Test_cores.joined config,
    Dsim.Engine.trace config )

let stepwise_pin ~protocol ~n ~t ~seed ~max_steps strategy =
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs:(split_inputs ~n seed)
      ~seed ()
  in
  let outcome =
    Dsim.Runner.run_steps config ~strategy ~max_steps ~stop:`First_decision
  in
  ( outcome.Dsim.Runner.steps,
    Digest.to_hex (Digest.string (Test_cores.joined config)) )

let check_pin name (exp_steps, exp_windows, exp_md5) (steps, windows, md5, _fp, _trace) =
  Alcotest.(check int) (name ^ " steps") exp_steps steps;
  Alcotest.(check int) (name ^ " windows") exp_windows windows;
  Alcotest.(check string) (name ^ " fingerprint md5") exp_md5 md5

(* The recorded event list of one run agrees with the trace's counters,
   kind by kind; the [Sent] count exercises [record_broadcast]'s
   per-destination expansion on a real run. *)
let check_events_match_counters name trace =
  let events = Dsim.Trace.events trace in
  let count p = List.length (List.filter p events) in
  let check kind counter p =
    Alcotest.(check int) (Printf.sprintf "%s %s events" name kind) counter (count p)
  in
  Alcotest.(check bool) (name ^ " recorded events") true (events <> []);
  check "sent" (Dsim.Trace.sent trace) (function Dsim.Trace.Sent _ -> true | _ -> false);
  check "delivered" (Dsim.Trace.delivered trace) (function
    | Dsim.Trace.Delivered _ -> true
    | _ -> false);
  check "dropped" (Dsim.Trace.dropped trace) (function
    | Dsim.Trace.Dropped _ -> true
    | _ -> false);
  check "reset" (Dsim.Trace.resets trace) (function
    | Dsim.Trace.Reset_done _ -> true
    | _ -> false);
  check "window-closed" (Dsim.Trace.windows_closed trace) (function
    | Dsim.Trace.Window_closed _ -> true
    | _ -> false);
  let render (pid, value, step, window, chain_depth) =
    Printf.sprintf "p%d=%b step %d window %d chain %d" pid value step window chain_depth
  in
  Alcotest.(check (list string)) (name ^ " decided events = decisions")
    (List.map render (Dsim.Trace.decisions trace))
    (List.filter_map
       (function
         | Dsim.Trace.Decided { pid; value; step; window; chain_depth } ->
             Some (render (pid, value, step, window, chain_depth))
         | _ -> None)
       events)

let test_pinned_lewko_split_vote () =
  let run ?record_events seed =
    windowed_pin ?record_events
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~n:9 ~t:1 ~seed ~max_windows:2000
      (Adversary.Split_vote.windowed ())
  in
  let ((_, _, _, fp1, _) as r1) = run 1 in
  check_pin "lewko seed=1" (450, 5, "0ff7b8555219fa9e9e1dbcd93ba6ca5b") r1;
  Alcotest.(check string) "lewko seed=1 raw fingerprint"
    "lv:0:N:0:6:0:0:0::9|lv:1:N:0:6:0:1:0::9|lv:2:N:0:6:0:0:0::9|lv:3:N:0:6:0:1:0::9|lv:4:N:0:6:0:0:0::9|lv:5:N:0:6:0:1:0::9|lv:6:N:0:6:0:0:0::9|lv:7:N:0:6:0:1:0::9|lv:8:N:0:6:0:0:0::9"
    fp1;
  (* Recording every event must not perturb the execution. *)
  let ((_, _, _, _, recorded) as r1_recorded) = run ~record_events:true 1 in
  check_pin "lewko seed=1 recorded" (450, 5, "0ff7b8555219fa9e9e1dbcd93ba6ca5b")
    r1_recorded;
  check_events_match_counters "lewko seed=1" recorded;
  check_pin "lewko seed=2" (1980, 22, "9b928a6b26ce634a2950ac670f22d883") (run 2);
  check_pin "lewko seed=3" (720, 8, "b1e335793b1f6e7ae163e0dc4b955a2b") (run 3)

let test_pinned_benor_reset_storm () =
  let run seed =
    windowed_pin
      ~protocol:(Protocols.Ben_or.protocol ())
      ~n:7 ~t:2 ~seed ~max_windows:2000
      (Adversary.Reset_storm.rotating ())
  in
  check_pin "benor storm seed=1" (60070, 2000, "fc1ddecdcdcbf7b996161e1fba1bcdbe") (run 1);
  check_pin "benor storm seed=2" (60070, 2000, "b1d9ff888b1a89f423401cb0b23fb3dc") (run 2)

let test_pinned_stepwise () =
  let benor seed =
    stepwise_pin
      ~protocol:(Protocols.Ben_or.protocol ())
      ~n:7 ~t:2 ~seed ~max_steps:5000
      (Adversary.Split_vote.stepwise ())
  in
  Alcotest.(check (pair int string))
    "benor stepwise seed=1"
    (462, "5a87d645a4a6ee4f7b2fe7019069c4d5")
    (benor 1);
  Alcotest.(check (pair int string))
    "benor stepwise seed=2"
    (2604, "f7491ac1587b2302dc6f5a097b19aa7e")
    (benor 2);
  Alcotest.(check (pair int string))
    "bracha echo-chamber seed=1"
    (3851, "55bf63ad6ed76894278a25645780df68")
    (stepwise_pin
       ~protocol:(Protocols.Bracha.protocol ())
       ~n:7 ~t:2 ~seed:1 ~max_steps:5000
       (Adversary.Echo_chamber.stepwise ()))

(* The E2-style ensemble sweep, pinned and compared across job counts:
   "byte-identical to seed at -j 1 and -j 2", rendered and structural. *)
let test_pinned_sweep_j1_j2 () =
  let spec =
    {
      Agreement.Ensemble.n = 9;
      t = 1;
      inputs = Agreement.Ensemble.split_inputs ~n:9;
      max_windows = 2_000;
      max_steps = 0;
      stop = `First_decision;
    }
  in
  let seeds = List.init 16 (fun i -> i + 1) in
  let sweep ~jobs =
    Agreement.Ensemble.run_windowed ~jobs
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Split_vote.windowed ())
      ~spec ~seeds ()
  in
  let expected =
    String.concat "\n"
      [
        "runs: 16";
        "terminated: 16";
        "agreement rate: 1.000";
        "validity rate: 1.000";
        "decisions: 5 zero / 11 one";
        "windows: n=16 mean=15.44 sd=9.373 min=2 max=35";
        "steps: n=16 mean=1389 sd=843.6 min=180 max=3150";
        "chain depth: n=16 mean=15.44 sd=9.373 min=2 max=35";
        "total resets: n=16 mean=0 sd=0 min=0 max=0";
        "lint violations: 0";
      ]
  in
  let r1 = sweep ~jobs:1 and r2 = sweep ~jobs:2 in
  Alcotest.(check string) "sweep -j1 matches pre-rewrite pin" expected
    (Format.asprintf "%a" Agreement.Ensemble.pp_result r1);
  Alcotest.(check string) "sweep -j2 matches pre-rewrite pin" expected
    (Format.asprintf "%a" Agreement.Ensemble.pp_result r2);
  Alcotest.(check bool) "sweep -j1 = -j2 structurally" true
    (Agreement.Ensemble.equal_result r1 r2)

let suite =
  List.map to_alcotest
    [
      prop_broadcast_mailbox_differential;
      prop_window_differential;
      prop_bitset_reference;
      prop_apply_window_differential;
    ]
  @ [
      Alcotest.test_case "iter_for allows taking the visited envelope" `Quick
        test_iter_for_take_during_iteration;
      Alcotest.test_case "recent-deliveries gate" `Quick
        test_delivery_tracking_gate;
      Alcotest.test_case "pinned: lewko vs split-vote" `Quick
        test_pinned_lewko_split_vote;
      Alcotest.test_case "pinned: ben-or vs reset storm" `Slow
        test_pinned_benor_reset_storm;
      Alcotest.test_case "pinned: stepwise adversaries" `Quick
        test_pinned_stepwise;
      Alcotest.test_case "pinned: ensemble sweep -j1/-j2" `Slow
        test_pinned_sweep_j1_j2;
    ]
