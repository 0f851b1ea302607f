type 'm send = Unicast of int * 'm | Broadcast of 'm

type 'm t =
  | Send of int
  | Deliver of int
  | Drop of int
  | Reset of int
  | Crash of int
  | Corrupt of int * 'm

let send_count ~n sends =
  List.fold_left
    (fun acc s -> acc + match s with Unicast _ -> 1 | Broadcast _ -> n)
    0 sends

let expand ~n sends =
  List.concat_map
    (function
      | Unicast (dst, m) -> [ (dst, m) ]
      | Broadcast m -> List.init n (fun dst -> (dst, m)))
    sends
