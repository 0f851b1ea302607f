(* A configuration's per-processor state cores joined with '|': the
   string the tests compare and pin configurations by. *)
let joined config =
  String.concat "|" (Array.to_list (Dsim.Engine.state_cores config))
