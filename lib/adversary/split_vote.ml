let escape_threshold ~n:_ ~t ~thresholds = thresholds.Protocols.Thresholds.t3 + t

(* The first [k] elements of [l]; [l] itself when it has no more. *)
let take k l =
  let rec go k = function x :: rest when k > 0 -> x :: go (k - 1) rest | _ -> [] in
  if List.compare_length_with l k <= 0 then l else go k l

let rec drop k = function _ :: rest when k > 0 -> drop (k - 1) rest | l -> l

(* How many majority holders to silence: up to [t].  If both census
   counts already fit under the visible-majority threshold nothing needs
   silencing, but trimming the majority never hurts the adversary. *)
let balancing_silence ~t { Strategy.zeros; ones; _ } = min t (abs (ones - zeros))

let windowed () =
  fun config ->
    let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
    let census = Strategy.vote_census config ~limit:t in
    let silenced = take (balancing_silence ~t census) census.majority_holders in
    (* The balancing set stabilizes once the estimates do; the memo
       then replays one shared window instead of rebuilding it. *)
    Some (Strategy.cached_uniform ~n ~silenced ())

let windowed_with_resets () =
  fun config ->
    let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
    let census = Strategy.vote_census config ~limit:(2 * t) in
    let k = balancing_silence ~t census in
    (* Reset the next [t] majority holders beyond the silenced ones. *)
    let silenced = take k census.majority_holders
    and resets = take t (drop k census.majority_holders) in
    Some (Dsim.Window.uniform ~n ~silenced ~resets ())

(* Free-running balancing.  Each cycle: sends for all live processors,
   then for each destination deliver the pending messages from all but
   up to [t] senders, excluding senders whose message carries the
   over-represented bit among that destination's pending messages.

   A cycle is planned into a reusable int buffer, one code per step
   ([3 * arg + kind], kind 0 send, 1 deliver, 2 drop), and each call
   materializes the next step.  Planning a destination is one
   [Mailbox.iter_for] walk that records every pending id with its bit
   ([3 * id + b], b 0 none, 1 zero, 2 one) and counts the bits, then one
   pass over the recorded codes that turns them into deliveries and
   drops. *)
type 'm cycle = {
  mutable bit_of : 'm -> bool option;
  mutable codes : int array;
  mutable len : int;
  mutable next : int;
  mutable zeros : int;
  mutable ones : int;
}

let push c code =
  if c.len = Array.length c.codes then begin
    let bigger = Array.make (max 64 (2 * c.len)) 0 in
    Array.blit c.codes 0 bigger 0 c.len;
    c.codes <- bigger
  end;
  c.codes.(c.len) <- code;
  c.len <- c.len + 1

let census c ~id ~src:_ ~dst:_ ~depth:_ payload =
  match c.bit_of payload with
  | None -> push c (3 * id)
  | Some false ->
      c.zeros <- c.zeros + 1;
      push c ((3 * id) + 1)
  | Some true ->
      c.ones <- c.ones + 1;
      push c ((3 * id) + 2)

(* Walk ascending ids; drop up to [budget] majority-bit messages. *)
let plan_deliveries c mailbox ~t ~dst =
  let first = c.len in
  c.zeros <- 0;
  c.ones <- 0;
  Dsim.Mailbox.iter_for mailbox ~dst c census;
  let majority = if c.ones >= c.zeros then 2 else 1 in
  let budget = min t (abs (c.ones - c.zeros)) in
  let skipped = ref 0 in
  for i = first to c.len - 1 do
    let code = c.codes.(i) in
    let id = code / 3 in
    if code mod 3 = majority && !skipped < budget then begin
      incr skipped;
      c.codes.(i) <- (3 * id) + 2
    end
    else c.codes.(i) <- (3 * id) + 1
  done

let plan c config =
  let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
  let mailbox = Dsim.Engine.mailbox config in
  c.bit_of <- (Dsim.Engine.protocol config).Dsim.Protocol.message_bit;
  c.len <- 0;
  c.next <- 0;
  for p = 0 to n - 1 do
    if not (Dsim.Engine.crashed config p) then push c (3 * p)
  done;
  for dst = 0 to n - 1 do
    if not (Dsim.Engine.crashed config dst) then plan_deliveries c mailbox ~t ~dst
  done

let stepwise () =
  let c = { bit_of = (fun _ -> None); codes = [||]; len = 0; next = 0; zeros = 0; ones = 0 } in
  fun config ->
    if c.next = c.len then plan c config;
    if c.next = c.len then None
    else begin
      let code = c.codes.(c.next) in
      c.next <- c.next + 1;
      let arg = code / 3 in
      Some
        (match code mod 3 with
        | 0 -> Dsim.Step.Send arg
        | 1 -> Dsim.Step.Deliver arg
        | _ -> Dsim.Step.Drop arg)
    end
