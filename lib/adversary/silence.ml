(* All five strategies go through [Strategy.cached_uniform]: a fixed
   (or slowly rotating) silenced set repeats for long stretches, and
   handing the engine the same window each time saves rebuilding it. *)

let fixed ~silenced config =
  Some (Strategy.cached_uniform ~n:(Dsim.Engine.n config) ~silenced ())

let rotating ~period ~count =
  if period <= 0 then invalid_arg "Silence.rotating: period must be positive";
  fun config ->
    let n = Dsim.Engine.n config in
    let block = Dsim.Engine.window_index config / period in
    let silenced = List.init count (fun i -> (i + (block * count)) mod n) in
    Some (Strategy.cached_uniform ~n ~silenced ())

let first_t config =
  let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
  let silenced = List.init t (fun i -> i) in
  Some (Strategy.cached_uniform ~n ~silenced ())

let last_t config =
  let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
  let silenced = List.init t (fun i -> n - t + i) in
  Some (Strategy.cached_uniform ~n ~silenced ())

let random ~seed =
  let rng = Prng.Stream.root seed in
  fun config ->
    let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
    let silenced = Prng.Stream.sample_without_replacement rng t n in
    (* Fresh samples miss the memo, but repeated draws of the same set
       (small binom(n, t)) reuse the window object. *)
    Some (Strategy.cached_uniform ~n ~silenced ())
