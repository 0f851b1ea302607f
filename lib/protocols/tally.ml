module Int_map = Map.Make (Int)

type t = { votes : bool Int_map.t; zeros : int; ones : int }

let empty = { votes = Int_map.empty; zeros = 0; ones = 0 }

let add t ~src value =
  if Int_map.mem src t.votes then t
  else
    {
      votes = Int_map.add src value t.votes;
      zeros = (t.zeros + if value then 0 else 1);
      ones = (t.ones + if value then 1 else 0);
    }

let count t = t.zeros + t.ones
let count_value t value = if value then t.ones else t.zeros

let srcs t = List.map fst (Int_map.bindings t.votes)

let fingerprint t =
  let b = Buffer.create 32 in
  Int_map.iter
    (fun src v ->
      if Buffer.length b > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int src);
      Buffer.add_char b ':';
      Buffer.add_char b (if v then '1' else '0'))
    t.votes;
  Buffer.contents b
