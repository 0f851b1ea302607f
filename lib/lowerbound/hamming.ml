let generic_distance ~equal a b =
  if Array.length a <> Array.length b then
    invalid_arg "Hamming.distance: length mismatch";
  let d = ref 0 in
  Array.iteri (fun i x -> if not (equal x b.(i)) then incr d) a;
  !d

let distance a b = generic_distance ~equal:String.equal a b
let distance_int a b = generic_distance ~equal:Int.equal a b

let distance_to_set x set =
  match set with
  | [] -> invalid_arg "Hamming.distance_to_set: empty set"
  | first :: rest ->
      List.fold_left (fun acc a -> min acc (distance x a)) (distance x first) rest

let distance_between_sets a b =
  match a with
  | [] -> invalid_arg "Hamming.distance_between_sets: empty set"
  | _ -> List.fold_left (fun acc x -> min acc (distance_to_set x b)) max_int a

let within ~d x set = distance_to_set x set <= d

let config_distance c1 c2 =
  distance (Dsim.Engine.state_cores c1) (Dsim.Engine.state_cores c2)
