type 'm send = Broadcast of 'm

type 'm t =
  | Send of int
  | Deliver of int
  | Drop of int
  | Reset of int
  | Crash of int
  | Corrupt of int * 'm

let send_count ~n sends = n * List.length sends

let expand ~n sends =
  List.concat_map (fun (Broadcast m) -> List.init n (fun dst -> (dst, m))) sends
