type t = { t1 : int; t2 : int; t3 : int }

let validate ~n ~t th =
  if n <= 0 then Error "n must be positive"
  else if t < 0 then Error "t must be non-negative"
  else if not (n - (2 * t) >= th.t1) then Error "need n - 2t >= T1"
  else if not (th.t1 >= th.t2) then Error "need T1 >= T2"
  else if not (th.t2 >= th.t3 + t) then Error "need T2 >= T3 + t"
  else if not (2 * th.t3 > n) then Error "need 2*T3 > n"
  else if not (2 * th.t3 > th.t1) then Error "need 2*T3 > T1"
  else if th.t3 <= 0 then Error "T3 must be positive"
  else Ok ()

let quorums =
  {
    Quorums.name = "lewko";
    family = "lewko";
    pos = __POS__;
    resilience = Symexpr.(div (sub n_ (int_ 1)) 6);
    thresholds =
      Symexpr.
        [
          ("t1", sub n_ (scale 2 t_));
          ("t2", sub n_ (scale 2 t_));
          ("t3", sub n_ (scale 3 t_));
        ];
  }

let evaluate ~n ~t =
  let value = Quorums.value quorums ~n ~t in
  { t1 = value "t1"; t2 = value "t2"; t3 = value "t3" }

let default ~n ~t =
  let candidate = evaluate ~n ~t in
  match validate ~n ~t candidate with
  | Ok () -> candidate
  | Error message ->
      Protocol_error.raise_error
        (Infeasible_thresholds
           { who = "Thresholds.default"; n; t; reason = message })

let feasible ~n ~t = Result.is_ok (validate ~n ~t (evaluate ~n ~t))

(* Largest t with 6t < n; Theorem 4's t < n/6 regime. *)
let max_fault_bound ~n = max 0 (Quorums.resilience quorums ~n)

let relaxed ~n ~t =
  (* Smallest valid T3 (a bare majority), then the smallest valid T2. *)
  let t3 = (n / 2) + 1 in
  let candidate = { t1 = n - (2 * t); t2 = t3 + t; t3 } in
  match validate ~n ~t candidate with
  | Ok () -> candidate
  | Error message ->
      Protocol_error.raise_error
        (Infeasible_thresholds
           { who = "Thresholds.relaxed"; n; t; reason = message })

let pp ppf th = Format.fprintf ppf "T1=%d T2=%d T3=%d" th.t1 th.t2 th.t3
