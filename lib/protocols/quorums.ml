type t = {
  name : string;
  family : string;
  pos : string * int * int * int;
  resilience : Symexpr.t;
  thresholds : (string * Symexpr.t) list;
}

let rec lookup key = function
  | [] -> None
  | (k, e) :: rest -> if String.equal k key then Some e else lookup key rest

let threshold d key =
  match lookup key d.thresholds with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Quorums.threshold: %s declares no %s" d.name key)

let value d ~n ~t key = Symexpr.eval ~n ~t (threshold d key)
let resilience d ~n = Symexpr.eval ~n ~t:0 d.resilience

let override d ~name ~pos changes =
  List.iter (fun (key, _) -> ignore (threshold d key)) changes;
  {
    d with
    name;
    pos;
    thresholds =
      List.map
        (fun (key, e) ->
          (key, Option.value ~default:e (lookup key changes)))
        d.thresholds;
  }
