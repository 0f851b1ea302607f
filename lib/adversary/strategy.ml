type ('s, 'm) windowed = ('s, 'm) Dsim.Engine.t -> Dsim.Window.t option
type ('s, 'm) stepwise = ('s, 'm) Dsim.Engine.t -> 'm Dsim.Step.t option

(* Windowed strategies rebuild the same uniform window for long
   stretches (benign sweeps, fixed silencing).  A last-one memo keyed
   on the exact parameters hands those stretches back the SAME
   [Window.t], so window construction leaves the per-window path.
   Sound because windows are immutable once built. *)
let uniform_memo : (int * int list * int list * Dsim.Window.t) option ref =
  ref None

let cached_uniform ~n ?(silenced = []) ?(resets = []) () =
  match !uniform_memo with
  | Some (n', s', r', w)
    when n' = n
         && List.equal Int.equal s' silenced
         && List.equal Int.equal r' resets ->
      w
  | _ ->
      let w = Dsim.Window.uniform ~n ~silenced ~resets () in
      uniform_memo := Some (n, silenced, resets, w);
      w

let limit_windows budget strategy =
  let remaining = ref budget in
  fun config ->
    if !remaining <= 0 then None
    else begin
      decr remaining;
      strategy config
    end

let switch_after k first second =
  let played = ref 0 in
  fun config ->
    if !played < k then begin
      incr played;
      first config
    end
    else second config

type census = { zeros : int; ones : int; silent : int; majority_holders : int list }

(* One pass over the processors' observations: count the estimates and
   keep the lowest [limit] holders of each value (reversed), so the
   majority's holders are known once the counts are. *)
let vote_census config ~limit =
  let zeros = ref 0 and ones = ref 0 and silent = ref 0 in
  let zero_holders = ref [] and one_holders = ref [] in
  for p = 0 to Dsim.Engine.n config - 1 do
    let obs = Dsim.Engine.observe config p in
    match obs.Dsim.Obs.estimate with
    | Some true ->
        if !ones < limit then one_holders := obs.Dsim.Obs.id :: !one_holders;
        incr ones
    | Some false ->
        if !zeros < limit then zero_holders := obs.Dsim.Obs.id :: !zero_holders;
        incr zeros
    | None -> incr silent
  done;
  {
    zeros = !zeros;
    ones = !ones;
    silent = !silent;
    majority_holders = List.rev (if !ones > !zeros then !one_holders else !zero_holders);
  }
