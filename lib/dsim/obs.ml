type t = {
  id : int;
  round : int;
  estimate : bool option;
  output : bool option;
  input : bool;
  resets : int;
  phase : int;
}

let make ~id ~round ~estimate ~output ~input ~resets ~phase =
  { id; round; estimate; output; input; resets; phase }

(* [Some true] and [Some false] are static constants, so an [observe]
   that reports an estimate through this allocates only its record. *)
let some_bit b = if b then Some true else Some false

let decided t = Option.is_some t.output
let estimate_is t value =
  match t.estimate with Some b -> Bool.equal b value | None -> false

let pp_bit ppf = function
  | None -> Format.pp_print_string ppf "_"
  | Some true -> Format.pp_print_string ppf "1"
  | Some false -> Format.pp_print_string ppf "0"

let pp ppf t =
  Format.fprintf ppf "p%d[r=%d ph=%d x=%a out=%a in=%d resets=%d]" t.id t.round t.phase
    pp_bit t.estimate pp_bit t.output
    (if t.input then 1 else 0)
    t.resets
