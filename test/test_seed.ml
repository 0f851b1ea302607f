(* The random state every qcheck property in the suite draws from:
   QCHECK_SEED when it is set (to replay a failure, or to search under
   a fresh seed as scripts/check.sh does), otherwise a fixed constant,
   so two runs of the suite check the same cases. *)

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None -> 1_106_517
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k -> k
      | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))

(* A fresh state per property, so a property's cases do not depend on
   which properties ran before it. *)
let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
