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

let vote_census config =
  let zeros = ref 0 and ones = ref 0 and silent = ref 0 in
  Array.iter
    (fun obs ->
      match obs.Dsim.Obs.estimate with
      | Some true -> incr ones
      | Some false -> incr zeros
      | None -> incr silent)
    (Dsim.Engine.observations config);
  (!zeros, !ones, !silent)

let majority_holders config ~limit =
  let zeros, ones, _ = vote_census config in
  let majority = ones > zeros in
  let holders = ref [] in
  let count = ref 0 in
  let obs = Dsim.Engine.observations config in
  Array.iter
    (fun o ->
      if !count < limit && Dsim.Obs.estimate_is o majority then begin
        holders := o.Dsim.Obs.id :: !holders;
        incr count
      end)
    obs;
  List.rev !holders
